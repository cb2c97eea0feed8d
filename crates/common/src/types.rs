//! Core vocabulary types: cycles, addresses and component identifiers.

use crate::snap::{SnapError, Walk};
use std::fmt;

/// A simulation time-stamp, measured in core clock cycles.
pub type Cycle = u64;

/// A simulated physical byte address.
pub type Addr = u64;

/// Number of threads in a warp (the paper, like NVIDIA hardware, uses 32).
pub const WARP_SIZE: usize = 32;

/// Identifier of a SIMT core within the whole GPU (global index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// The SoC agent a memory request originates from.
///
/// DASH and HMC (case study I) schedule DRAM accesses by source class, so
/// every request that reaches a memory controller carries one of these tags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficSource {
    /// A CPU core, by index within the CPU cluster.
    Cpu(usize),
    /// The GPU (all SIMT clusters share one tag, as in the paper).
    #[default]
    Gpu,
    /// The display controller DMA engine.
    Display,
    /// Any other DMA/IP block (unused by the paper's case studies but kept
    /// for extensibility — requirement (3) of the paper's intro).
    OtherIp(usize),
}

impl TrafficSource {
    /// True when the source is a CPU core.
    pub fn is_cpu(self) -> bool {
        matches!(self, TrafficSource::Cpu(_))
    }

    /// True when the source is an accelerator/IP block (GPU, display, other).
    pub fn is_ip(self) -> bool {
        !self.is_cpu()
    }

    /// Walks the source for a snapshot: a tag byte plus, for a CPU core
    /// or another IP block, its index.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        let (mut tag, mut i) = match *self {
            TrafficSource::Cpu(i) => (0u8, i),
            TrafficSource::Gpu => (1, 0),
            TrafficSource::Display => (2, 0),
            TrafficSource::OtherIp(i) => (3, i),
        };
        w.u8(&mut tag)?;
        w.check(tag < 4, "traffic source tag")?;
        if tag % 3 == 0 {
            w.usize(&mut i)?;
        }
        *self = match tag {
            0 => TrafficSource::Cpu(i),
            1 => TrafficSource::Gpu,
            2 => TrafficSource::Display,
            _ => TrafficSource::OtherIp(i),
        };
        Ok(())
    }
}

impl fmt::Display for TrafficSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficSource::Cpu(i) => write!(f, "cpu{i}"),
            TrafficSource::Gpu => write!(f, "gpu"),
            TrafficSource::Display => write!(f, "display"),
            TrafficSource::OtherIp(i) => write!(f, "ip{i}"),
        }
    }
}

/// Read/write direction of a memory access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load; the requester waits for the data.
    #[default]
    Read,
    /// A store; modeled as posted (no response needed by the requester).
    Write,
}

impl AccessKind {
    /// Walks the kind for a snapshot (one tag byte).
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        let mut tag = (*self == AccessKind::Write) as u8;
        w.u8(&mut tag)?;
        w.check(tag < 2, "access kind tag")?;
        *self = if tag == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_source_classes() {
        assert!(TrafficSource::Cpu(0).is_cpu());
        assert!(!TrafficSource::Cpu(3).is_ip());
        assert!(TrafficSource::Gpu.is_ip());
        assert!(TrafficSource::Display.is_ip());
        assert!(TrafficSource::OtherIp(1).is_ip());
    }

    #[test]
    fn display_formats() {
        assert_eq!(CoreId(5).to_string(), "core5");
        assert_eq!(TrafficSource::Cpu(1).to_string(), "cpu1");
        assert_eq!(TrafficSource::Gpu.to_string(), "gpu");
    }
}
