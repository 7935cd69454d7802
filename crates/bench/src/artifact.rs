//! Atomic `BENCH_*.json` artifacts.
//!
//! A bench writes its rows through a [`BenchArtifact`] as it measures them.
//! The rows go to `BENCH_<name>.json.tmp` next to the artifact, and only
//! [`BenchArtifact::commit`], called after the bench's last gate has
//! passed, flushes and syncs that file and renames it over the artifact. A
//! bench that stops early (a failed gate, a panic, a kill) therefore leaves
//! the committed artifact exactly as it was: dropping an uncommitted writer
//! deletes its temporary file.

use std::fmt::Display;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// A JSON-lines bench artifact that replaces its predecessor only on
/// [`commit`](Self::commit).
///
/// Write errors do not interrupt the bench: the first one is kept and
/// returned by `commit`, which then leaves the old artifact in place.
#[derive(Debug)]
pub struct BenchArtifact {
    path: PathBuf,
    tmp: PathBuf,
    /// The open temporary file; `None` once committed, or when the artifact
    /// is disabled.
    out: Option<BufWriter<File>>,
    error: Option<io::Error>,
}

impl BenchArtifact {
    /// The artifact `file` (e.g. `"BENCH_sweeps.json"`) at the workspace
    /// root, or, when `write` is false (smoke runs), a writer that records
    /// nothing and touches no file.
    pub fn open(file: &str, write: bool) -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if write {
            Self::at(root.join(file))
        } else {
            BenchArtifact {
                path: root.join(file),
                tmp: PathBuf::new(),
                out: None,
                error: None,
            }
        }
    }

    /// An artifact at `path`, staged in `<path>.tmp`.
    fn at(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let (out, error) = match File::create(&tmp) {
            Ok(f) => (Some(BufWriter::new(f)), None),
            Err(e) => (None, Some(e)),
        };
        BenchArtifact {
            path,
            tmp,
            out,
            error,
        }
    }

    /// Appends one row (one JSON object) as a line.
    pub fn row(&mut self, row: impl Display) {
        if let (Some(out), None) = (self.out.as_mut(), self.error.as_ref()) {
            if let Err(e) = writeln!(out, "{row}") {
                self.error = Some(e);
            }
        }
    }

    /// Publishes the rows: flushes and syncs the temporary file, renames it
    /// over the artifact, then syncs the directory so the rename is durable.
    /// A disabled artifact commits nothing.
    ///
    /// # Errors
    ///
    /// Returns the first write error, or the error of the flush, sync or
    /// rename, after which the previous artifact is untouched and the
    /// temporary file removed; or the error of the directory sync.
    pub fn commit(mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let Some(out) = self.out.take() else {
            return Ok(());
        };
        let publish = || -> io::Result<()> {
            let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
            file.sync_all()?;
            drop(file);
            fs::rename(&self.tmp, &self.path)
        };
        publish().inspect_err(|_| {
            let _ = fs::remove_file(&self.tmp);
        })?;
        match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
            _ => Ok(()),
        }
    }
}

impl Drop for BenchArtifact {
    fn drop(&mut self) {
        // Never committed (or the commit failed): discard the staged rows.
        if self.out.take().is_some() || self.error.is_some() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("symbreak-artifact-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_writer_dropped_before_commit_leaves_the_artifact_untouched() {
        let dir = scratch("drop");
        let path = dir.join("BENCH_demo.json");
        let old = b"{\"row\":1}\n{\"row\":2}\n";
        fs::write(&path, old).unwrap();
        {
            let mut artifact = BenchArtifact::at(&path);
            artifact.row("{\"row\":3}");
            assert!(dir.join("BENCH_demo.json.tmp").exists());
            // Dropped here, as when a gate panics mid-bench.
        }
        assert_eq!(fs::read(&path).unwrap(), old);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no .tmp left");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_replaces_the_artifact() {
        let dir = scratch("commit");
        let path = dir.join("BENCH_demo.json");
        fs::write(&path, "stale\n").unwrap();
        let mut artifact = BenchArtifact::at(&path);
        artifact.row("{\"row\":1}");
        artifact.row(format_args!("{{\"row\":{}}}", 2));
        artifact.commit().unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "{\"row\":1}\n{\"row\":2}\n"
        );
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no .tmp left");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_disabled_artifact_writes_nothing() {
        let mut artifact = BenchArtifact::open("BENCH_never_written.json", false);
        artifact.row("{}");
        let path = artifact.path.clone();
        artifact.commit().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn an_unwritable_artifact_fails_its_commit() {
        let dir = scratch("unwritable");
        let mut artifact = BenchArtifact::at(dir.join("missing-dir").join("BENCH_demo.json"));
        artifact.row("{}");
        assert!(artifact.commit().is_err());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
