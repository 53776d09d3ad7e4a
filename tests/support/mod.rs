//! Fixtures shared by integration tests (this package's `tests/*.rs`
//! via `mod support;`, other crates' via `#[path]`).
//!
//! `cargo test` runs the tests of one binary on parallel threads, so a
//! fixture file that several tests read must never be visible half
//! written. The check-then-write idiom (`if !p.exists() { write(p) }`)
//! is exactly that bug: a second test sees the file exist while the
//! first is still writing it and reads a short file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Path of fixture `name` in the per-process temp directory
/// `<dir>-<pid>`, created on first use by `write`.
///
/// `write` fills a uniquely named sibling, which is then renamed into
/// place: rename is atomic, so every reader sees either no file or a
/// complete one. Two racing first users both write; the contents are
/// the same and either rename may win.
pub fn fixture<T>(
    dir: &str,
    name: &str,
    write: impl FnOnce(&Path) -> std::io::Result<T>,
) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!("{dir}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("create fixture directory");
    let path = d.join(name);
    if !path.exists() {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let partial = d.join(format!("{name}.partial-{n}"));
        write(&partial).expect("write fixture");
        std::fs::rename(&partial, &path).expect("publish fixture");
    }
    path
}
