//! The unified fallible surface of the zskip stack.
//!
//! Every layer has its own narrow error enum — [`SimError`] from the
//! cycle engine, [`DriverError`] from stripe planning and execution,
//! [`DmaError`]/[`BusError`]/[`HostError`] from the SoC models,
//! [`PushError`] from FIFO ports, [`FaultError`] from the injection
//! layer. [`Error`] wraps them all so applications (the CLI, the batch
//! engine, campaign runners) can hold one type, and gives each failure a
//! stable machine-readable [`code`](Error::code) for JSON artifacts.

use std::fmt;

pub use zskip_fault::FaultError;
use zskip_sim::{ConfigError, PushError, SimError};
use zskip_soc::dma::DmaError;
use zskip_soc::host::{DeviceFault, HostError};
use zskip_soc::BusError;

use crate::driver::DriverError;
use crate::serve::ServeError;
use zskip_nn::SpecError;

/// Any failure in the zskip stack. Re-exported as `zskip::Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Cycle-engine failure (deadlock, cycle limit).
    Sim(SimError),
    /// Driver failure (striping, unsupported geometry, backend).
    Driver(DriverError),
    /// FIFO push refused (port busy or full).
    Push(PushError),
    /// DMA descriptor or transfer failure.
    Dma(DmaError),
    /// Avalon bus access failure.
    Bus(BusError),
    /// Host-side driver-protocol failure.
    Host(HostError),
    /// Fault-injection layer failure.
    Fault(FaultError),
    /// Serving-daemon failure (backpressure, protocol, shutdown).
    Serve(ServeError),
    /// Network-spec document failure (`--network FILE` loading or
    /// validation — see [`zskip_nn::spec_io`]).
    Spec(SpecError),
    /// Invalid engine or driver configuration.
    InvalidConfig(String),
}

impl Error {
    /// A stable, machine-readable code for JSON reports. Codes are
    /// `<layer>.<kind>` and are part of the public contract: tests and
    /// downstream tooling may match on them.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Sim(SimError::Deadlock { .. }) => "sim.deadlock",
            Error::Sim(SimError::CycleLimit { .. }) => "sim.cycle-limit",
            Error::Driver(DriverError::LayerTooLarge { .. }) => "driver.layer-too-large",
            Error::Driver(DriverError::Sim(SimError::Deadlock { .. })) => "sim.deadlock",
            Error::Driver(DriverError::Sim(SimError::CycleLimit { .. })) => "sim.cycle-limit",
            Error::Driver(DriverError::Dma(_)) | Error::Dma(_) => match self.dma() {
                Some(DmaError::Unaligned(_)) => "dma.unaligned",
                Some(DmaError::BadBank(_)) => "dma.bad-bank",
                Some(DmaError::BankOverflow { .. }) => "dma.bank-overflow",
                Some(DmaError::Truncated { .. }) => "dma.truncated",
                Some(DmaError::Parity { .. }) => "dma.parity",
                None => unreachable!("both arms carry a DmaError"),
            },
            Error::Driver(DriverError::Unsupported { .. }) => "driver.unsupported",
            Error::Driver(DriverError::InvalidNetwork(_)) => "driver.invalid-network",
            Error::Driver(DriverError::InvalidConfig(_)) | Error::InvalidConfig(_) => {
                "config.invalid"
            }
            Error::Driver(DriverError::Panicked(_)) => "driver.panicked",
            Error::Push(_) => "sim.fifo-push",
            Error::Bus(BusError::Unmapped(_)) => "bus.unmapped",
            Error::Bus(BusError::Misaligned(_)) => "bus.misaligned",
            Error::Bus(BusError::Timeout(_)) => "bus.timeout",
            Error::Host(HostError::Bus(_)) => "host.bus",
            Error::Host(HostError::Device(DeviceFault::Unresponsive { .. })) => {
                "host.unresponsive"
            }
            Error::Host(HostError::Device(DeviceFault::ErrorBit)) => "host.error-bit",
            Error::Fault(FaultError::Unresponsive { .. }) => "fault.unresponsive",
            Error::Fault(FaultError::Injected { .. }) => "fault.injected",
            Error::Serve(ServeError::Overloaded { .. }) => "serve.overloaded",
            Error::Serve(ServeError::Shutdown) => "serve.shutdown",
            Error::Serve(ServeError::Protocol { .. }) => "serve.protocol",
            Error::Serve(ServeError::BadRequest { .. }) => "serve.bad-request",
            Error::Spec(_) => "spec.invalid",
        }
    }

    /// The underlying [`DmaError`], however deeply it is wrapped.
    pub fn dma(&self) -> Option<DmaError> {
        match self {
            Error::Dma(e) | Error::Driver(DriverError::Dma(e)) => Some(*e),
            _ => None,
        }
    }

    /// The underlying [`SimError`], however deeply it is wrapped.
    pub fn sim(&self) -> Option<&SimError> {
        match self {
            Error::Sim(e) | Error::Driver(DriverError::Sim(e)) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sim(e) => write!(f, "{e}"),
            Error::Driver(e) => write!(f, "{e}"),
            Error::Push(e) => write!(f, "{e}"),
            Error::Dma(e) => write!(f, "{e}"),
            Error::Bus(e) => write!(f, "{e}"),
            Error::Host(e) => write!(f, "{e}"),
            Error::Fault(e) => write!(f, "{e}"),
            Error::Serve(e) => write!(f, "{e}"),
            Error::Spec(e) => write!(f, "invalid network spec: {e}"),
            Error::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sim(e) => Some(e),
            Error::Driver(e) => Some(e),
            Error::Push(e) => Some(e),
            Error::Dma(e) => Some(e),
            Error::Bus(e) => Some(e),
            Error::Host(e) => Some(e),
            Error::Fault(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Spec(e) => Some(e),
            Error::InvalidConfig(_) => None,
        }
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Error {
        Error::Sim(e)
    }
}

impl From<DriverError> for Error {
    fn from(e: DriverError) -> Error {
        Error::Driver(e)
    }
}

impl From<PushError> for Error {
    fn from(e: PushError) -> Error {
        Error::Push(e)
    }
}

impl From<DmaError> for Error {
    fn from(e: DmaError) -> Error {
        Error::Dma(e)
    }
}

impl From<BusError> for Error {
    fn from(e: BusError) -> Error {
        Error::Bus(e)
    }
}

impl From<HostError> for Error {
    fn from(e: HostError) -> Error {
        Error::Host(e)
    }
}

impl From<FaultError> for Error {
    fn from(e: FaultError) -> Error {
        Error::Fault(e)
    }
}

impl From<ServeError> for Error {
    fn from(e: ServeError) -> Error {
        Error::Serve(e)
    }
}

impl From<SpecError> for Error {
    fn from(e: SpecError) -> Error {
        Error::Spec(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Error {
        Error::InvalidConfig(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_layered() {
        let e: Error = SimError::CycleLimit { limit: 5, unfinished: vec![] }.into();
        assert_eq!(e.code(), "sim.cycle-limit");
        let e: Error = DmaError::Truncated { moved: 1, expected: 4 }.into();
        assert_eq!(e.code(), "dma.truncated");
        // A DMA error wrapped in a driver error keeps the DMA code: the
        // wrapping layer is incidental, the failure class is not.
        let e: Error = DriverError::Dma(DmaError::Parity { tile: 0 }).into();
        assert_eq!(e.code(), "dma.parity");
        assert_eq!(e.dma(), Some(DmaError::Parity { tile: 0 }));
        let e: Error = BusError::Timeout(0xc000_0000).into();
        assert_eq!(e.code(), "bus.timeout");
        let e: Error = FaultError::Unresponsive { waited: 9 }.into();
        assert_eq!(e.code(), "fault.unresponsive");
        let e: Error = zskip_nn::NetworkSpec::from_json("{").unwrap_err().into();
        assert_eq!(e.code(), "spec.invalid");
        assert!(e.to_string().starts_with("invalid network spec:"), "{e}");
    }

    #[test]
    fn display_and_source_delegate() {
        let e: Error = BusError::Unmapped(0x10).into();
        assert!(e.to_string().contains("no slave mapped"));
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::InvalidConfig("units must equal lanes".into());
        assert!(std::error::Error::source(&e).is_none());
        assert!(e.to_string().contains("units must equal lanes"));
    }
}
