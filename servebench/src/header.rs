//! The run header written at the top of every result and span dump. Two
//! result sets are comparable only when their headers agree on every
//! field except the commit and the seed.

use crate::json::{Json, ObjWriter};

/// What a run was measured on and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// SIMD kernel backend the process dispatched to.
    pub kernel_backend: String,
    /// Batcher queue implementation (`QueueKind::from_env`).
    pub queue_kind: String,
    /// `DREC_FORCE_SCALAR` as set in the environment (`unset` if not).
    pub force_scalar: String,
    /// `DREC_THREADS` as set in the environment (`unset` if not).
    pub threads_env: String,
    /// CPU serving workers of the runtime.
    pub cpu_workers: usize,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// `untraced` or `traced`, with the window length.
    pub mode: String,
    /// Workload name.
    pub workload: String,
}

/// Header fields that may differ between runs being compared.
const FREE_FIELDS: [&str; 2] = ["commit", "seed"];

impl Header {
    /// The header fields as `(name, value)` pairs, in a fixed order.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("kernel_backend", self.kernel_backend.clone()),
            ("queue_kind", self.queue_kind.clone()),
            ("DREC_FORCE_SCALAR", self.force_scalar.clone()),
            ("DREC_THREADS", self.threads_env.clone()),
            ("cpu_workers", self.cpu_workers.to_string()),
            ("commit", self.commit.clone()),
            ("seed", self.seed.to_string()),
            ("mode", self.mode.clone()),
            ("workload", self.workload.clone()),
        ]
    }

    /// The header as a JSON object (all values as strings).
    pub fn to_json(&self) -> String {
        self.fields()
            .iter()
            .fold(ObjWriter::new(), |w, (k, v)| w.str(k, v))
            .finish()
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        let parts: Vec<String> = self
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("header: {}", parts.join(" "))
    }
}

/// The fields of a header JSON object that must match across compared
/// runs (everything but commit and seed), in source order.
pub fn comparable_fields(header: &Json) -> Vec<(String, String)> {
    header
        .as_object()
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| !FREE_FIELDS.contains(&k.as_str()) && k != "workload")
        .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("?").to_string()))
        .collect()
}

/// Reads an environment variable for the header.
pub fn env_or_unset(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".to_string())
}

/// The checkout's commit: `git rev-parse HEAD` when the working directory
/// is itself a git checkout, else `unknown`.
pub fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_seed_and_workload_are_free_to_differ() {
        let h = Header {
            nproc: 2,
            kernel_backend: "avx2+fma".into(),
            queue_kind: "lockfree".into(),
            force_scalar: "unset".into(),
            threads_env: "unset".into(),
            cpu_workers: 1,
            commit: "abc".into(),
            seed: 1,
            mode: "untraced/10s".into(),
            workload: "colo_steady".into(),
        };
        let mut other = h.clone();
        other.commit = "def".into();
        other.seed = 2;
        other.workload = "sls_steady".into();
        let a = crate::json::parse(&h.to_json()).unwrap();
        let b = crate::json::parse(&other.to_json()).unwrap();
        assert_eq!(comparable_fields(&a), comparable_fields(&b));
        other.nproc = 4;
        let c = crate::json::parse(&other.to_json()).unwrap();
        assert_ne!(comparable_fields(&a), comparable_fields(&c));
    }
}
