//! Memory requests and responses exchanged between hierarchy levels.

use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::{AccessKind, Addr, Cycle, TrafficSource};

/// A request identifier, stamped by its requester from a counter of its
/// own: `(source, id)` identifies a request. GPU read ids are slots of the
/// GPU's in-flight read slab; nothing outside the GPU reads an id.
pub(crate) type ReqId = u64;

/// A cache-line-granularity memory request traveling down the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemRequest {
    /// Requester-local id; `(source, id)` identifies the request.
    pub id: ReqId,
    /// Line-aligned byte address.
    pub addr: Addr,
    /// Transfer size in bytes (normally one cache line).
    pub bytes: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Originating SoC agent (CPU core, GPU, display…).
    pub source: TrafficSource,
    /// Cycle the request entered the memory system (for latency stats).
    pub issued: Cycle,
}

/// A completed memory access returning up the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemResponse {
    /// The id of the request this answers.
    pub id: ReqId,
    /// Line-aligned byte address.
    pub addr: Addr,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Read or write (writes complete silently for requesters, but the
    /// completion still carries bandwidth accounting).
    pub kind: AccessKind,
    /// Originating agent, echoed back for routing.
    pub source: TrafficSource,
    /// Cycle the access completed at DRAM (or the level that satisfied it).
    pub finished: Cycle,
}

impl MemRequest {
    /// Builds the response corresponding to this request.
    pub(crate) fn response(&self, finished: Cycle) -> MemResponse {
        MemResponse {
            id: self.id,
            addr: self.addr,
            bytes: self.bytes,
            kind: self.kind,
            source: self.source,
            finished,
        }
    }

    /// True for reads (which need a response delivered to the requester).
    pub(crate) fn needs_response(&self) -> bool {
        self.kind == AccessKind::Read
    }

    /// Walks every field for a snapshot.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.u64(&mut self.id)?;
        w.u64(&mut self.addr)?;
        w.u32(&mut self.bytes)?;
        self.kind.walk(w)?;
        self.source.walk(w)?;
        w.u64(&mut self.issued)
    }
}

impl MemResponse {
    /// Walks every field for a snapshot.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.u64(&mut self.id)?;
        w.u64(&mut self.addr)?;
        w.u32(&mut self.bytes)?;
        self.kind.walk(w)?;
        self.source.walk(w)?;
        w.u64(&mut self.finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_echoes_request() {
        let r = MemRequest {
            id: 42,
            addr: 0x1000,
            bytes: 128,
            kind: AccessKind::Read,
            source: TrafficSource::Gpu,
            issued: 10,
        };
        let resp = r.response(99);
        assert_eq!(resp.id, 42);
        assert_eq!(resp.addr, 0x1000);
        assert_eq!(resp.finished, 99);
        assert!(r.needs_response());
        let w = MemRequest {
            kind: AccessKind::Write,
            ..r
        };
        assert!(!w.needs_response());
    }
}
