//! Turning raw RB deliveries into the events a host's engine reports.

use minsync_broadcast::{RbEngine, RbEvent, RbMsg};
use minsync_core::RbTag;
use minsync_types::{ProcessId, SystemConfig};

/// Makes `rb` RB-deliver `value` from `origin` under the counted `tag`
/// (`2t + 1` READYs), and returns the value if that delivery made it valid.
pub fn deliver(
    rb: &mut RbEngine<RbTag, u64>,
    cfg: SystemConfig,
    tag: RbTag,
    origin: usize,
    value: u64,
) -> Option<u64> {
    let (origin, senders) = (ProcessId::new(origin), 0..cfg.ready_threshold());
    let ready = RbMsg::Ready { origin, tag, value };
    let mut steps = senders.map(|s| rb.on_message(ProcessId::new(s), ready.clone()));
    steps.find_map(|step| match step.event {
        Some(RbEvent::CbValid { value, .. }) => Some(value),
        _ => None,
    })
}
