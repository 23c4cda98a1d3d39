//! Internal packet envelopes routed through the NoCs and the inter-chip fabric.

use mcgpu_types::{ChipId, LineAddr, Request, Response};

/// Which leg of its journey a request is on (Fig. 6's miss-routing paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqStage {
    /// Heading to a slice on the requesting chip (SM-side lookup, or the
    /// local half of the static/dynamic organizations for remote data).
    ToLocalSlice,
    /// Heading to a slice on the page's home chip (memory-side lookup —
    /// path 5/6 in Fig. 6 — or the static organizations' second-level
    /// lookup).
    ToHomeSlice,
    /// SM-side remote miss: bypass the home chip's slices and go straight
    /// to its memory partition (path 4 in Fig. 6).
    ToHomeMemBypass,
}

/// A request plus its routing stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqEnvelope {
    /// The memory request.
    pub req: Request,
    /// Current routing stage.
    pub stage: ReqStage,
}

impl ReqEnvelope {
    /// Bytes on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.req.wire_bytes()
    }
}

/// What a response must do when it arrives back on the requesting chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillAction {
    /// Nothing to fill (the data was found on this chip, or the
    /// organization does not replicate).
    None,
    /// Fill the requesting chip's slice for this line (SM-side replication,
    /// or the static/dynamic remote pool).
    FillLocalSlice,
}

/// A response plus its fill obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RspEnvelope {
    /// The response.
    pub rsp: Response,
    /// Fill to perform on arrival at the requesting chip.
    pub fill: FillAction,
}

impl RspEnvelope {
    /// Bytes on the wire.
    pub fn wire_bytes(&self, line_size: u64) -> u64 {
        self.rsp.wire_bytes(line_size)
    }
}

/// Anything the inter-chip fabric can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricPayload {
    /// A request on its way to a remote chip.
    Req(ReqEnvelope),
    /// A response on its way back.
    Rsp(RspEnvelope),
    /// A dirty-line writeback towards the line's home memory partition.
    Writeback {
        /// The dirty line.
        line: LineAddr,
        /// Its home chip.
        home: ChipId,
    },
    /// A hardware-coherence invalidation for `line` addressed to `target`.
    Inval {
        /// The line to invalidate.
        line: LineAddr,
        /// The chip whose LLC must drop its copy.
        target: ChipId,
    },
}

impl FabricPayload {
    /// Bytes on the wire.
    pub fn wire_bytes(&self, line_size: u64) -> u64 {
        match self {
            FabricPayload::Req(e) => e.wire_bytes(),
            FabricPayload::Rsp(e) => e.wire_bytes(line_size),
            FabricPayload::Writeback { .. } => mcgpu_types::packet::RSP_HEADER_BYTES + line_size,
            FabricPayload::Inval { .. } => mcgpu_types::packet::RSP_HEADER_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_types::{Address, ClusterId, MemAccess, RequestId, ResponseOrigin};

    #[test]
    fn ring_payload_sizes() {
        let req = ReqEnvelope {
            req: Request {
                id: RequestId(1),
                origin: ClusterId::new(ChipId(0), 0),
                access: MemAccess::read(Address::new(0)),
                home: ChipId(1),
            },
            stage: ReqStage::ToHomeSlice,
        };
        assert_eq!(FabricPayload::Req(req).wire_bytes(128), 16);
        let rsp = RspEnvelope {
            rsp: Response {
                id: RequestId(1),
                dest: ClusterId::new(ChipId(0), 0),
                access: MemAccess::read(Address::new(0)),
                origin: ResponseOrigin::RemoteMem,
            },
            fill: FillAction::FillLocalSlice,
        };
        assert_eq!(FabricPayload::Rsp(rsp).wire_bytes(128), 144);
        assert_eq!(
            FabricPayload::Writeback {
                line: LineAddr(0),
                home: ChipId(0)
            }
            .wire_bytes(128),
            144
        );
        assert_eq!(
            FabricPayload::Inval {
                line: LineAddr(0),
                target: ChipId(0)
            }
            .wire_bytes(128),
            16
        );
    }
}
