//! CPU and GPU P-state (voltage/frequency) tables for the simulated APU.
//!
//! The tables mirror the AMD Trinity A10-5800K as described in the paper:
//! six software-visible CPU P-states from 1.4 to 3.7 GHz sharing a single
//! voltage plane across both compute units, and three effective GPU P-states
//! (311/649/819 MHz) on an independent power plane.

use serde::{Deserialize, Serialize};

/// A single voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Supply voltage in volts.
    pub(crate) voltage_v: f64,
}

impl OperatingPoint {
    /// A new operating point from a frequency (GHz) and voltage (V).
    pub(crate) const fn new(freq_ghz: f64, voltage_v: f64) -> Self {
        Self { freq_ghz, voltage_v }
    }
}

/// Software-visible CPU P-states, fastest first is *not* guaranteed; the
/// table is ordered slowest → fastest so that index 0 is the deepest
/// power-saving state, matching ACPI convention reversed for readability.
pub(crate) const CPU_PSTATES: [OperatingPoint; 6] = [
    OperatingPoint::new(1.4, 0.850),
    OperatingPoint::new(1.9, 0.925),
    OperatingPoint::new(2.4, 1.000),
    OperatingPoint::new(2.9, 1.075),
    OperatingPoint::new(3.3, 1.1625),
    OperatingPoint::new(3.7, 1.250),
];

/// Effective GPU P-states on the Trinity GPU power plane.
pub(crate) const GPU_PSTATES: [OperatingPoint; 3] = [
    OperatingPoint::new(0.311, 0.825),
    OperatingPoint::new(0.649, 1.000),
    OperatingPoint::new(0.819, 1.175),
];

/// Index into `CPU_PSTATES`. `CpuPState(0)` is the slowest state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CpuPState(pub u8);

/// Index into `GPU_PSTATES`. `GpuPState(0)` is the slowest state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GpuPState(pub u8);

impl CpuPState {
    /// Slowest CPU P-state (1.4 GHz).
    pub const MIN: CpuPState = CpuPState(0);
    /// Fastest software-visible CPU P-state (3.7 GHz).
    pub const MAX: CpuPState = CpuPState(CPU_PSTATES.len() as u8 - 1);

    /// Number of software-visible CPU P-states.
    pub const COUNT: usize = CPU_PSTATES.len();

    /// The operating point for this P-state.
    #[inline]
    pub(crate) fn point(self) -> OperatingPoint {
        CPU_PSTATES[self.0 as usize]
    }

    /// Core frequency in GHz.
    #[inline]
    pub fn freq_ghz(self) -> f64 {
        self.point().freq_ghz
    }

    /// Supply voltage in volts.
    #[inline]
    pub fn voltage_v(self) -> f64 {
        self.point().voltage_v
    }

    /// All CPU P-states, slowest first.
    pub fn all() -> impl DoubleEndedIterator<Item = CpuPState> + ExactSizeIterator {
        (0..CPU_PSTATES.len() as u8).map(CpuPState)
    }

    /// The next slower P-state, or `None` at the floor. Used by the
    /// simulated frequency limiter when walking down to meet a cap.
    pub fn step_down(self) -> Option<CpuPState> {
        self.0.checked_sub(1).map(CpuPState)
    }

    /// The next faster P-state, or `None` at the ceiling.
    pub fn step_up(self) -> Option<CpuPState> {
        let next = self.0 + 1;
        (usize::from(next) < CPU_PSTATES.len()).then_some(CpuPState(next))
    }
}

impl GpuPState {
    /// Slowest GPU P-state (311 MHz).
    pub const MIN: GpuPState = GpuPState(0);
    /// Fastest GPU P-state (819 MHz).
    pub const MAX: GpuPState = GpuPState(GPU_PSTATES.len() as u8 - 1);

    /// Number of effective GPU P-states.
    pub const COUNT: usize = GPU_PSTATES.len();

    /// The operating point for this P-state.
    #[inline]
    pub(crate) fn point(self) -> OperatingPoint {
        GPU_PSTATES[self.0 as usize]
    }

    /// Core frequency in GHz.
    #[inline]
    pub fn freq_ghz(self) -> f64 {
        self.point().freq_ghz
    }

    /// Supply voltage in volts.
    #[inline]
    pub fn voltage_v(self) -> f64 {
        self.point().voltage_v
    }

    /// All GPU P-states, slowest first.
    pub fn all() -> impl DoubleEndedIterator<Item = GpuPState> + ExactSizeIterator {
        (0..GPU_PSTATES.len() as u8).map(GpuPState)
    }

    /// The next slower P-state, or `None` at the floor.
    pub fn step_down(self) -> Option<GpuPState> {
        self.0.checked_sub(1).map(GpuPState)
    }
}

/// Reference frequency used for counter normalization and the leading-loads
/// timing model: the fastest software-visible CPU P-state.
pub const CPU_REF_FREQ_GHZ: f64 = 3.7;

/// Reference GPU frequency: the fastest GPU P-state.
pub const GPU_REF_FREQ_GHZ: f64 = 0.819;

/// Voltage of the shared CPU plane given the P-states of both compute units.
///
/// Trinity's compute units share a voltage plane, so the plane voltage is
/// that demanded by the faster module even if the other idles at a lower
/// P-state. The paper relies on this coupling (Section IV-A).
pub(crate) fn shared_plane_voltage(module_states: &[CpuPState]) -> f64 {
    module_states.iter().map(|p| p.voltage_v()).fold(CPU_PSTATES[0].voltage_v, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_pstates_are_monotonic_in_freq_and_voltage() {
        for w in CPU_PSTATES.windows(2) {
            assert!(w[0].freq_ghz < w[1].freq_ghz);
            assert!(w[0].voltage_v < w[1].voltage_v);
        }
    }

    #[test]
    fn gpu_pstates_are_monotonic_in_freq_and_voltage() {
        for w in GPU_PSTATES.windows(2) {
            assert!(w[0].freq_ghz < w[1].freq_ghz);
            assert!(w[0].voltage_v < w[1].voltage_v);
        }
    }

    #[test]
    fn cpu_pstate_range_matches_paper() {
        assert_eq!(CpuPState::MIN.freq_ghz(), 1.4);
        assert_eq!(CpuPState::MAX.freq_ghz(), 3.7);
        assert_eq!(CpuPState::COUNT, 6);
    }

    #[test]
    fn gpu_pstate_range_matches_paper() {
        assert_eq!(GpuPState::MIN.freq_ghz(), 0.311);
        assert_eq!(GpuPState::MAX.freq_ghz(), 0.819);
        assert_eq!(GpuPState::COUNT, 3);
    }

    #[test]
    fn step_down_reaches_floor() {
        let mut p = CpuPState::MAX;
        let mut hops = 0;
        while let Some(next) = p.step_down() {
            p = next;
            hops += 1;
        }
        assert_eq!(p, CpuPState::MIN);
        assert_eq!(hops, CpuPState::COUNT - 1);
    }

    #[test]
    fn step_up_then_down_roundtrips() {
        for p in CpuPState::all() {
            if let Some(up) = p.step_up() {
                assert_eq!(up.step_down(), Some(p));
            }
        }
    }

    #[test]
    fn shared_plane_voltage_takes_max() {
        let v = shared_plane_voltage(&[CpuPState(0), CpuPState(5)]);
        assert_eq!(v, CPU_PSTATES[5].voltage_v);
        let v = shared_plane_voltage(&[CpuPState(2), CpuPState(1)]);
        assert_eq!(v, CPU_PSTATES[2].voltage_v);
    }

    #[test]
    fn shared_plane_voltage_of_empty_is_floor() {
        assert_eq!(shared_plane_voltage(&[]), CPU_PSTATES[0].voltage_v);
    }

    #[test]
    fn all_iterators_are_exact_size() {
        assert_eq!(CpuPState::all().len(), 6);
        assert_eq!(GpuPState::all().len(), 3);
    }
}
