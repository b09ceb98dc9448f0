//! The four workloads. Each file says why its workload exists.

pub mod mixed_journal;
pub mod offline_loocv;
pub mod select_warm;
pub mod session_churn;

use crate::workload::{Env, Workload};
use crate::Res;

/// Prepare the workload called `name`.
pub fn prepare(name: &str, env: &Env) -> Res<Box<dyn Workload>> {
    Ok(match name {
        "select_warm" => Box::new(select_warm::SelectWarm::prepare(env)),
        "mixed_journal" => Box::new(mixed_journal::MixedJournal::prepare(env)?),
        "session_churn" => Box::new(session_churn::SessionChurn::prepare(env)),
        "offline_loocv" => Box::new(offline_loocv::OfflineLoocv::prepare(env)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}
