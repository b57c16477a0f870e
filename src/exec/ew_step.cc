#include "exec/ew_step.h"

#include "common/strings.h"

namespace cumulon {

std::string EwStep::ToString() const {
  if (kind == Kind::kUnary) {
    return StrCat(UnaryOpName(uop), "(", scalar, ")");
  }
  const char* suffix = operand == Operand::kRowVector   ? "[row]"
                       : operand == Operand::kColVector ? "[col]"
                                                        : "";
  const std::string other = operand == Operand::kProduct
                                ? StrCat(other_matrix, "*", right_factor)
                                : other_matrix;
  return swapped ? StrCat(BinaryOpName(bop), "(", other, ", v)", suffix)
                 : StrCat(BinaryOpName(bop), "(v, ", other, ")", suffix);
}

Status ApplyEwStep(const EwStep& step, Tile* value, const Tile* other,
                   KernelMode mode) {
  if (step.kind == EwStep::Kind::kUnary) {
    return EwUnaryWithMode(mode, step.uop, *value, step.scalar, value);
  }
  if (other == nullptr) {
    return Status::InvalidArgument(
        StrCat("binary ew step '", step.ToString(), "' missing operand"));
  }
  switch (step.operand) {
    case EwStep::Operand::kFull:
    case EwStep::Operand::kProduct:
      return step.swapped
                 ? EwBinaryWithMode(mode, step.bop, *other, *value, value)
                 : EwBinaryWithMode(mode, step.bop, *value, *other, value);
    case EwStep::Operand::kRowVector:
      return EwBroadcastWithMode(mode, step.bop, *value, *other,
                                 /*row_vector=*/true, step.swapped, value);
    case EwStep::Operand::kColVector:
      return EwBroadcastWithMode(mode, step.bop, *value, *other,
                                 /*row_vector=*/false, step.swapped, value);
  }
  return Status::Internal("unhandled operand kind");
}

Status ApplyEwStep(const EwStep& step, Tile* value, const Tile* other) {
  return ApplyEwStep(step, value, other, KernelMode::kAuto);
}

}  // namespace cumulon
