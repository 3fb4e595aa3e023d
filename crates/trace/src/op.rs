//! Micro-operation model.
//!
//! A [`MicroOp`] is the unit the CPU simulator executes: roughly one
//! decoded RISC-like operation (what Intel calls a µop). The trace layer
//! deliberately stays at this abstraction level — the paper's counters
//! (stall breakdowns, cache/TLB misses, branch mispredictions) are all
//! functions of the µop stream, not of x86 encoding details.

use std::fmt;

/// Privilege mode an instruction retires in.
///
/// Figure 4 of the paper breaks retired instructions down into user
/// ("application") and kernel mode; service workloads execute >40 % of
/// instructions in the kernel while most data-analysis workloads stay
/// below 10 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// User-mode (application) execution.
    #[default]
    User,
    /// Kernel-mode execution (syscalls, interrupts, network/disk stacks).
    Kernel,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::User => f.write_str("user"),
            Mode::Kernel => f.write_str("kernel"),
        }
    }
}

/// Functional class of a micro-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Simple integer ALU operation (1-cycle class).
    IntAlu,
    /// Integer multiply (3-cycle class on Westmere).
    IntMul,
    /// Integer/FP divide (long-latency, unpipelined class).
    Div,
    /// Floating-point add/mul (3-cycle pipelined class).
    FpAlu,
    /// Memory load of `size` bytes from virtual address `addr`.
    Load {
        /// Virtual byte address accessed.
        addr: u64,
        /// Access width in bytes.
        size: u8,
    },
    /// Memory store of `size` bytes to virtual address `addr`.
    Store {
        /// Virtual byte address accessed.
        addr: u64,
        /// Access width in bytes.
        size: u8,
    },
    /// Control transfer. `taken` is the architectural outcome and
    /// `target` the architectural destination address.
    Branch {
        /// Whether the branch is taken.
        taken: bool,
        /// Destination instruction address when taken.
        target: u64,
    },
}

impl OpKind {
    /// Returns `true` for [`OpKind::Load`].
    pub fn is_load(&self) -> bool {
        matches!(self, OpKind::Load { .. })
    }

    /// Returns `true` for [`OpKind::Store`].
    pub fn is_store(&self) -> bool {
        matches!(self, OpKind::Store { .. })
    }

    /// Returns `true` for [`OpKind::Branch`].
    pub fn is_branch(&self) -> bool {
        matches!(self, OpKind::Branch { .. })
    }

    /// Returns `true` for any memory-accessing kind.
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// The memory address touched, if any.
    pub fn mem_addr(&self) -> Option<u64> {
        match self {
            OpKind::Load { addr, .. } | OpKind::Store { addr, .. } => Some(*addr),
            _ => None,
        }
    }
}

/// One micro-operation in program (fetch) order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// Instruction (fetch) address.
    pub pc: u64,
    /// Functional class plus operands relevant to the simulator.
    pub kind: OpKind,
    /// Privilege mode.
    pub mode: Mode,
    /// Distance, in µops, to the most recent producer of one of this op's
    /// source operands. `0` means the op has no in-window register
    /// dependence. The backend uses this to model instruction-level
    /// parallelism without tracking architectural register names.
    pub dep_dist: u16,
    /// Set when this µop triggers a register-allocation-table hazard
    /// (partial-register stall / read-port conflict class). See
    /// `WorkloadProfile::rat_hazard_rate` — this is the one
    /// direct-injection knob in the model, documented in DESIGN.md §7 item 3.
    pub rat_hazard: bool,
}

impl MicroOp {
    /// Convenience constructor for a plain integer ALU op.
    pub fn int_alu(pc: u64) -> Self {
        MicroOp {
            pc,
            kind: OpKind::IntAlu,
            mode: Mode::User,
            dep_dist: 0,
            rat_hazard: false,
        }
    }

    /// Convenience constructor for a load.
    pub fn load(pc: u64, addr: u64) -> Self {
        MicroOp {
            pc,
            kind: OpKind::Load { addr, size: 8 },
            mode: Mode::User,
            dep_dist: 0,
            rat_hazard: false,
        }
    }

    /// Convenience constructor for a store.
    pub fn store(pc: u64, addr: u64) -> Self {
        MicroOp {
            pc,
            kind: OpKind::Store { addr, size: 8 },
            mode: Mode::User,
            dep_dist: 0,
            rat_hazard: false,
        }
    }

    /// Convenience constructor for a branch.
    pub fn branch(pc: u64, taken: bool, target: u64) -> Self {
        MicroOp {
            pc,
            kind: OpKind::Branch { taken, target },
            mode: Mode::User,
            dep_dist: 0,
            rat_hazard: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(OpKind::Load { addr: 0, size: 8 }.is_load());
        assert!(OpKind::Load { addr: 0, size: 8 }.is_mem());
        assert!(!OpKind::Load { addr: 0, size: 8 }.is_store());
        assert!(OpKind::Store { addr: 4, size: 4 }.is_store());
        assert!(OpKind::Store { addr: 4, size: 4 }.is_mem());
        assert!(OpKind::Branch {
            taken: true,
            target: 0
        }
        .is_branch());
        assert!(!OpKind::IntAlu.is_mem());
        assert!(!OpKind::FpAlu.is_branch());
    }

    #[test]
    fn mem_addr_extraction() {
        assert_eq!(
            OpKind::Load {
                addr: 0x1234,
                size: 8
            }
            .mem_addr(),
            Some(0x1234)
        );
        assert_eq!(
            OpKind::Store {
                addr: 0x88,
                size: 1
            }
            .mem_addr(),
            Some(0x88)
        );
        assert_eq!(OpKind::IntAlu.mem_addr(), None);
        assert_eq!(
            OpKind::Branch {
                taken: false,
                target: 9
            }
            .mem_addr(),
            None
        );
    }

    #[test]
    fn mode_display_and_default() {
        assert_eq!(Mode::default(), Mode::User);
        assert_eq!(Mode::User.to_string(), "user");
        assert_eq!(Mode::Kernel.to_string(), "kernel");
    }

    #[test]
    fn constructors() {
        let op = MicroOp::load(0x400000, 0x7000_0000);
        assert_eq!(op.pc, 0x400000);
        assert_eq!(op.kind.mem_addr(), Some(0x7000_0000));
        assert_eq!(op.mode, Mode::User);
        let b = MicroOp::branch(0x10, true, 0x40);
        assert!(b.kind.is_branch());
        let s = MicroOp::store(0x14, 0x99);
        assert!(s.kind.is_store());
        let a = MicroOp::int_alu(0x18);
        assert_eq!(a.kind, OpKind::IntAlu);
    }
}
