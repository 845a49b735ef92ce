//! The embedded ARM host: CSR programming, polling, and time accounting.
//!
//! "Software executing on the on-chip ARM processor handles the loading
//! and pre-processing of network weights, biases and test images ... The
//! framework sends the instruction and calls the hardware driver for
//! inference." (paper §IV-C)

use crate::avalon::{AvalonBus, BusError};
use crate::csr::{status, AccelCsr, ACCEL_CSR_BASE};
use zskip_fault::{FaultKind, SharedFaultPlan};

/// Failure of a host-side driver operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostError {
    /// A bus transaction failed.
    Bus(BusError),
    /// The device misbehaved: never quiesced, or an injected fault fired.
    Device(DeviceFault),
}

/// A device-side misbehavior observed by the host (mirrors
/// [`zskip_fault::FaultError`] but is `Copy` for ergonomic matching).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFault {
    /// Neither DONE nor ERROR within the poll budget.
    Unresponsive {
        /// Polls issued before giving up.
        polls: u64,
    },
    /// The accelerator raised its ERROR status bit.
    ErrorBit,
}

impl From<BusError> for HostError {
    fn from(e: BusError) -> HostError {
        HostError::Bus(e)
    }
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Bus(e) => write!(f, "bus error: {e}"),
            HostError::Device(DeviceFault::Unresponsive { polls }) => {
                write!(f, "accelerator did not quiesce within {polls} polls")
            }
            HostError::Device(DeviceFault::ErrorBit) => {
                write!(f, "accelerator raised its ERROR status bit")
            }
        }
    }
}

impl std::error::Error for HostError {}

/// The host CPU model: a Cortex-A9 issuing Avalon transactions.
///
/// Time accounting is in fabric-clock cycles: each bus access costs the
/// bus's wait states plus a bridge-crossing constant; software overhead
/// between accesses is charged per operation.
#[derive(Debug)]
pub struct HostCpu {
    /// Fabric cycles per HPS-to-FPGA bridge crossing.
    pub bridge_cycles: u64,
    /// Fabric cycles of software overhead per driver call.
    pub sw_overhead_cycles: u64,
    cycles: u64,
    polls: u64,
    fault_plan: Option<SharedFaultPlan>,
}

impl Default for HostCpu {
    fn default() -> Self {
        HostCpu { bridge_cycles: 10, sw_overhead_cycles: 50, cycles: 0, polls: 0, fault_plan: None }
    }
}

impl HostCpu {
    /// Creates a host with default timing.
    pub fn new() -> HostCpu {
        HostCpu::default()
    }

    /// Total fabric cycles the host has spent in the driver.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of status polls issued.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Writes an accelerator CSR.
    ///
    /// # Errors
    /// Propagates bus decode errors.
    pub fn write_csr(&mut self, bus: &mut AvalonBus, reg: AccelCsr, value: u32) -> Result<(), BusError> {
        self.cycles += self.bridge_cycles;
        bus.write(ACCEL_CSR_BASE + reg as u32, value)
    }

    /// Reads an accelerator CSR.
    ///
    /// # Errors
    /// Propagates bus decode errors.
    pub fn read_csr(&mut self, bus: &mut AvalonBus, reg: AccelCsr) -> Result<u32, BusError> {
        self.cycles += self.bridge_cycles;
        bus.read(ACCEL_CSR_BASE + reg as u32)
    }

    /// Programs an instruction stream and rings the doorbell.
    ///
    /// # Errors
    /// Propagates bus decode errors.
    pub fn launch(&mut self, bus: &mut AvalonBus, instr_addr: u32, instr_count: u32) -> Result<(), BusError> {
        self.cycles += self.sw_overhead_cycles;
        self.write_csr(bus, AccelCsr::InstrAddr, instr_addr)?;
        self.write_csr(bus, AccelCsr::InstrCount, instr_count)?;
        self.write_csr(bus, AccelCsr::Ctrl, 1)
    }

    /// Attaches a fault plan: an `accel:quiesce` [`FaultKind::Hang`]
    /// injection makes the device unresponsive (the host burns its whole
    /// poll budget, then reports the failure).
    pub fn set_fault_plan(&mut self, plan: SharedFaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Polls status until the accelerator quiesces (DONE), with a poll
    /// budget, converting every failure mode into a structured error.
    ///
    /// # Errors
    /// [`HostError::Bus`] on a failed transaction;
    /// [`DeviceFault::ErrorBit`] when the accelerator flags an illegal
    /// instruction; [`DeviceFault::Unresponsive`] when the budget runs out
    /// — including under an injected `accel:quiesce` hang, which swallows
    /// DONE transitions as a wedged device would.
    pub fn wait_quiescent(&mut self, bus: &mut AvalonBus, max_polls: u64) -> Result<u32, HostError> {
        let hung = self
            .fault_plan
            .as_ref()
            .map(|p| p.lock().unwrap_or_else(|e| e.into_inner()).fire("accel:quiesce", 0))
            .unwrap_or(None)
            == Some(FaultKind::Hang);
        for _ in 0..max_polls {
            self.polls += 1;
            let word = self.read_csr(bus, AccelCsr::Status)?;
            if hung {
                // The wedged device never presents DONE to the host.
                continue;
            }
            if word & status::ERROR != 0 {
                return Err(HostError::Device(DeviceFault::ErrorBit));
            }
            if word & status::DONE != 0 {
                return Ok(word);
            }
        }
        Err(HostError::Device(DeviceFault::Unresponsive { polls: max_polls }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrFile, CSR_BLOCK_LEN};

    fn system() -> AvalonBus {
        let mut bus = AvalonBus::new();
        bus.map("accel-csr", ACCEL_CSR_BASE, CSR_BLOCK_LEN, Box::new(CsrFile::new()));
        bus
    }

    #[test]
    fn launch_programs_registers_and_doorbell() {
        let mut bus = system();
        let mut host = HostCpu::new();
        host.launch(&mut bus, 0x40, 7).unwrap();
        assert_eq!(bus.read(ACCEL_CSR_BASE + AccelCsr::InstrAddr as u32).unwrap(), 0x40);
        assert_eq!(bus.read(ACCEL_CSR_BASE + AccelCsr::InstrCount as u32).unwrap(), 7);
        assert!(host.cycles() >= host.sw_overhead_cycles + 3 * host.bridge_cycles);
    }

    #[test]
    fn wait_quiescent_returns_done_status() {
        let mut bus = system();
        let mut host = HostCpu::new();
        bus.write(ACCEL_CSR_BASE + AccelCsr::Status as u32, status::DONE).unwrap();
        assert_eq!(host.wait_quiescent(&mut bus, 100), Ok(status::DONE));
        assert_eq!(host.polls(), 1);
    }

    #[test]
    fn wait_quiescent_reports_unresponsive_device() {
        let mut bus = system();
        let mut host = HostCpu::new();
        let err = host.wait_quiescent(&mut bus, 8).unwrap_err();
        assert_eq!(err, HostError::Device(DeviceFault::Unresponsive { polls: 8 }));
        assert_eq!(host.polls(), 8, "the whole budget is burned before giving up");
    }

    #[test]
    fn wait_quiescent_surfaces_error_bit() {
        let mut bus = system();
        let mut host = HostCpu::new();
        bus.write(ACCEL_CSR_BASE + AccelCsr::Status as u32, status::ERROR).unwrap();
        let err = host.wait_quiescent(&mut bus, 100).unwrap_err();
        assert_eq!(err, HostError::Device(DeviceFault::ErrorBit));
    }

    #[test]
    fn injected_hang_swallows_done() {
        use zskip_fault::{FaultKind, FaultPlan};
        let mut bus = system();
        let mut host = HostCpu::new();
        host.set_fault_plan(
            FaultPlan::new().inject("accel:quiesce", 0, FaultKind::Hang).shared(),
        );
        // DONE is set, but the wedged device never presents it.
        bus.write(ACCEL_CSR_BASE + AccelCsr::Status as u32, status::DONE).unwrap();
        let err = host.wait_quiescent(&mut bus, 16).unwrap_err();
        assert_eq!(err, HostError::Device(DeviceFault::Unresponsive { polls: 16 }));
    }
}
