//! Child-process handling: every spawned program gets a hard timeout, is
//! killed when the harness unwinds, and has its stdout and stderr kept in
//! files under `benchmark/out/` (so a chatty or wedged child can never
//! block on a full pipe, and its stderr can be shown on failure).

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Where the harness writes: traces, child output, suite results.
pub const OUT_DIR: &str = "benchmark/out";

/// Hard timeout of one `zskip infer` (or cold-trace child) process.
pub const INFER_TIMEOUT: Duration = Duration::from_secs(60);
/// Hard timeout of one `zskip serve` daemon, spawn to exit.
pub const SERVE_TIMEOUT: Duration = Duration::from_secs(120);

/// Creates [`OUT_DIR`] and returns the path of `name` inside it.
pub fn out_path(name: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    Ok(Path::new(OUT_DIR).join(name))
}

/// A spawned child whose output goes to files; killed and reaped on drop.
pub struct Spawned {
    child: Child,
    started: Instant,
    deadline: Instant,
    stdout: PathBuf,
    stderr: PathBuf,
}

impl Spawned {
    /// Spawns `program args..`, sending stdout and stderr to
    /// `benchmark/out/<tag>.stdout|.stderr`. The child must exit within
    /// `timeout` of now or [`Spawned::wait`] kills it.
    pub fn spawn(
        program: &Path,
        args: &[&str],
        tag: &str,
        timeout: Duration,
    ) -> Result<Spawned, String> {
        let stdout = out_path(&format!("{tag}.stdout"))?;
        let stderr = out_path(&format!("{tag}.stderr"))?;
        let create =
            |p: &Path| File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()));
        let started = Instant::now();
        let child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(create(&stdout)?)
            .stderr(create(&stderr)?)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
        Ok(Spawned {
            child,
            started,
            deadline: started + timeout,
            stdout,
            stderr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// Everything the child has written to stdout so far.
    pub fn stdout(&self) -> String {
        std::fs::read_to_string(&self.stdout).unwrap_or_default()
    }

    /// Everything the child has written to stderr so far.
    pub fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr).unwrap_or_default()
    }

    /// Waits for the child to exit, polling every millisecond and calling
    /// `poll` about every 20 ms while it runs. Returns the exit status and
    /// the spawn-to-exit wall time.
    ///
    /// # Errors
    /// When the hard timeout passes first; the child is killed.
    pub fn wait(&mut self, mut poll: impl FnMut(u32)) -> Result<(ExitStatus, Duration), String> {
        let mut ticks = 0u32;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok((status, self.started.elapsed())),
                Ok(None) => {}
                Err(e) => return Err(format!("wait failed: {e}")),
            }
            if Instant::now() >= self.deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(format!(
                    "hard timeout after {:.0} s; killed",
                    self.started.elapsed().as_secs_f64()
                ));
            }
            if ticks.is_multiple_of(20) {
                poll(self.child.id());
            }
            ticks += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Polls the child's stdout until a line satisfying `pick` appears.
    ///
    /// # Errors
    /// When the child exits or `timeout` passes first.
    pub fn wait_for_line<T>(
        &mut self,
        timeout: Duration,
        pick: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        let deadline = (Instant::now() + timeout).min(self.deadline);
        loop {
            if let Some(found) = self.stdout().lines().find_map(&pick) {
                return Ok(found);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("exited early ({status})"));
            }
            if Instant::now() >= deadline {
                return Err("timed out waiting for its first output line".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        // Reached with a live child only on an error path or a panic.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`, in KiB.
pub fn proc_status_kib(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Runs a short helper command and returns its trimmed stdout, or
/// `unknown` (host descriptor fields are best effort).
pub fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
