//! Where a run's numbers come from: host, kernel tier, environment
//! overrides, source revision and every workload parameter.

use crate::metrics::json_str;
use std::path::Path;

/// The provenance block of one run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Host threads available to the process.
    pub nproc: usize,
    /// CPU brand string (from `cpuid` on x86-64).
    pub cpu: String,
    /// The sketch kernel tier dispatch selected.
    pub kernel: &'static str,
    /// `MPC_KERNEL`, if set.
    pub env_kernel: Option<String>,
    /// `MPC_WORKERS`, if set (the workloads override it).
    pub env_workers: Option<String>,
    /// Source revision, read from `.git` in the working directory when
    /// present.
    pub git_rev: String,
    /// Workload name.
    pub workload: &'static str,
    /// The workload seed.
    pub seed: u64,
    /// Length of the run the shape was sized for, in seconds.
    pub seconds: f64,
    /// Whether spans were recorded.
    pub trace: bool,
    /// Every workload parameter, as `(name, value)`.
    pub params: Vec<(&'static str, String)>,
}

impl Provenance {
    /// Collects the host facts around the given workload parameters.
    pub fn collect(
        workload: &'static str,
        seed: u64,
        seconds: f64,
        trace: bool,
        params: Vec<(&'static str, String)>,
    ) -> Self {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |c| c.get()),
            cpu: cpu_model(),
            kernel: mpc_sketch::KernelKind::selected().name(),
            env_kernel: std::env::var("MPC_KERNEL").ok(),
            env_workers: std::env::var("MPC_WORKERS").ok(),
            git_rev: git_rev(Path::new(".git")),
            workload,
            seed,
            seconds,
            trace,
            params,
        }
    }

    /// The block as one JSON object.
    pub fn to_json(&self) -> String {
        let opt = |v: &Option<String>| v.as_deref().map_or("null".to_string(), json_str);
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"env_MPC_KERNEL\": {}, \
             \"env_MPC_WORKERS\": {}, \"git_rev\": {}, \"workload\": {}, \"seed\": {}, \
             \"seconds\": {}, \"trace\": {}, \"params\": {{{}}}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(self.kernel),
            opt(&self.env_kernel),
            opt(&self.env_workers),
            json_str(&self.git_rev),
            json_str(self.workload),
            self.seed,
            self.seconds,
            self.trace,
            params.join(", ")
        )
    }
}

/// The CPU brand string, read with `cpuid` (no file access).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaves 0x8000_0002..=0x8000_0004 hold the brand string when
    // leaf 0x8000_0000 reports them.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let s = String::from_utf8_lossy(&bytes);
    s.trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The commit `.git/HEAD` points at, or `unknown` outside a git
/// checkout.
fn git_rev(git: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    // A packed ref: `<rev> <name>` lines.
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_is_one_json_object() {
        let p = Provenance::collect("grow", 7, 1.0, false, vec![("n", "100".into())]);
        let j = p.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"seed\": 7"));
        assert!(j.contains("\"params\": {\"n\": \"100\"}"));
        assert!(p.nproc >= 1);
        assert!(!p.cpu.is_empty());
    }

    #[test]
    fn missing_git_dir_reads_unknown() {
        assert_eq!(git_rev(Path::new("no-such-dir/.git")), "unknown");
    }
}
