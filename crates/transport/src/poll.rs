//! `poll(2)`, the crate's one foreign call, where the mesh's loop sleeps:
//! std links the C library but does not expose `poll`.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// Wait for bytes to read (on a listener: a connection to accept).
pub(crate) const POLLIN: c_short = 0x001;
/// Wait for room to write.
pub(crate) const POLLOUT: c_short = 0x004;

/// One `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events` (errors and hang-ups are always reported).
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the last [`wait`] report readiness, an error or a hang-up (which
    /// the next read or write surfaces)?
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` passes, rounded *up* to
/// whole milliseconds so a deadline never wakes the caller early. A wait
/// cut short by a signal reports nothing ready.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
    let nfds = Nfds::try_from(fds.len()).expect("descriptor count fits nfds_t");
    // SAFETY: `fds` is an exclusively borrowed slice of exactly `nfds`
    // `#[repr(C)]` records laid out as `struct pollfd`; poll(2) writes only
    // their `revents` fields and keeps no pointer once it returns.
    if unsafe { poll(fds.as_mut_ptr(), nfds, ms) } >= 0 {
        return Ok(());
    }
    let err = io::Error::last_os_error();
    match err.kind() {
        io::ErrorKind::Interrupted => Ok(()),
        _ => Err(err),
    }
}
