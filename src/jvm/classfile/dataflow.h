//===- jvm/classfile/dataflow.h - Dataflow bytecode verifier -----*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract-interpretation half of bytecode verification (JVM spec 2nd
/// ed., §4.9.2): a worklist fixpoint over a verification type lattice that
/// proves, per method, that the operand stack never under- or overflows
/// max_stack, that every local access stays inside max_locals and matches
/// the type the slot holds, that every merge point is consistent, and that
/// monitorenter/monitorexit are structurally balanced on every path.
///
/// The structural verifier (verifier.h) must have accepted the method
/// first: this pass assumes instruction boundaries, branch targets, and
/// constant-pool tags are already known good.
///
/// A method the analysis accepts earns the per-method `Verified` bit the
/// interpreter uses to elide its per-instruction stack/locals guards
/// (DESIGN.md §12 documents the exact check-elision contract).
///
/// Deliberate simplifications, documented in DESIGN.md §12: all reference
/// types collapse to one `Ref` point (no class-hierarchy subtyping — the
/// interpreter retains its checkcast/receiver checks), jsr/ret subroutines
/// are handled conservatively (a ret flows to the successor of every jsr),
/// and monitor-balance violations are diagnosed but classified
/// MonitorOnly, because the spec makes structured-locking enforcement
/// optional and the runtime throws IllegalMonitorStateException anyway.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_CLASSFILE_DATAFLOW_H
#define DOPPIO_JVM_CLASSFILE_DATAFLOW_H

#include "jvm/classfile/classfile.h"
#include "jvm/classfile/opcodes.h"
#include "jvm/classfile/verifier.h"

#include <map>
#include <string>
#include <vector>

namespace doppio {
namespace jvm {

/// "int", "reference", "long-hi", ... for diagnostics.
const char *vtypeName(VType T);

/// The abstract machine state entering one instruction.
struct FrameState {
  std::vector<VType> Locals; ///< Always exactly max_locals slots.
  std::vector<VType> Stack;  ///< Slot-typed; never exceeds max_stack.
  int32_t MonitorDepth = 0;  ///< monitorenter nesting on this path.
};

/// Compact rendering for disasm annotation: "[I R J=] m=1" (stack bottom
/// to top; '=' marks the trailing slot of a two-slot value).
std::string renderFrameState(const FrameState &S);

/// The result of analyzing one method.
struct MethodDataflow {
  /// True iff no errors of any kind: the method may run check-elided.
  bool Ok = false;
  /// First hard error, plus any monitor-balance diagnostics found before
  /// it. Monitor errors carry VerifyError::MonitorOnly.
  std::vector<VerifyError> Errors;
  /// Instruction start -> merged state entering it. Unreachable code has
  /// no entry (dead code is not analyzed, matching the spec).
  std::map<uint32_t, FrameState> In;
};

/// Runs the dataflow analysis over \p M (which must have a Code attribute
/// and must already have passed structural verification).
MethodDataflow analyzeMethodDataflow(const ClassFile &Cf,
                                     const MemberInfo &M);

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_CLASSFILE_DATAFLOW_H
