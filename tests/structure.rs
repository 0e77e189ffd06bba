//! The structural guards: one table of them (`.github/structure.tsv`)
//! and the runner that proves each guard on a planted line or fixture
//! before it scans the tree (`.github/structure.sh`). A failure names
//! the guard, and says whether its plant went uncaught, the tree matches
//! it, or a path it reads is missing.

use std::path::Path;
use std::process::Command;

#[test]
fn every_structural_guard_fires_on_its_plant_and_holds_on_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new("bash")
        .arg(".github/structure.sh")
        .current_dir(&root)
        .output()
        .expect("bash runs the structural guards");
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
