//! Golden trace fixtures: committed recorded runs, re-verified every build.
//!
//! Each fixture under `tests/fixtures/` is the byte-exact output of one
//! [`golden_scenarios`] recorder. The test (a) re-records the scenario and
//! demands the bytes match the committed file — so silent drift in the
//! protocols, the simulator, or the wire format is caught the moment it
//! happens; and (b) replays the committed bytes through `replay_direct`,
//! which drives fresh automata through the recorded causes and demands
//! byte-identical effects.
//!
//! To bless intentional changes, run:
//!
//! ```text
//! UPDATE_TRACE_FIXTURES=1 cargo test -p minsync-conformance --test trace_fixtures
//! ```
//!
//! and commit the rewritten files — see `tests/fixtures/README.md` for the
//! update policy.

use std::fs;
use std::path::PathBuf;

use minsync_conformance::golden_scenarios;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.trace"))
}

#[test]
fn fixtures_are_current_and_replay_on_every_substrate() {
    let update = std::env::var_os("UPDATE_TRACE_FIXTURES").is_some();
    for scenario in golden_scenarios() {
        let path = fixture_path(scenario.name);
        let fresh = (scenario.record)();
        if update {
            fs::write(&path, &fresh)
                .unwrap_or_else(|e| panic!("{}: write {}: {e}", scenario.name, path.display()));
        }
        let committed = fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: read {}: {e}\n(first run? bless with UPDATE_TRACE_FIXTURES=1)",
                scenario.name,
                path.display()
            )
        });
        assert_eq!(
            committed, fresh,
            "{}: recorder output drifted from the committed fixture — if the \
             change is intentional, re-bless with UPDATE_TRACE_FIXTURES=1 and \
             explain the drift in the commit message",
            scenario.name
        );
        (scenario.verify)(&committed)
            .unwrap_or_else(|e| panic!("{}: committed fixture failed replay: {e}", scenario.name));
    }
}

#[test]
fn fixture_set_is_exactly_the_registry() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut on_disk: Vec<String> = fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .filter_map(|entry| {
            let name = entry.expect("readable dir entry").file_name();
            let name = name.to_string_lossy().into_owned();
            name.strip_suffix(".trace").map(str::to_owned)
        })
        .collect();
    on_disk.sort();
    let mut registered: Vec<String> = golden_scenarios()
        .iter()
        .map(|s| s.name.to_string())
        .collect();
    registered.sort();
    assert_eq!(
        on_disk, registered,
        "fixtures on disk and registered scenarios must match 1:1"
    );
}
