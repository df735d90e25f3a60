// Shadow-precision execution engines: vm_engine.inc instantiated with
// VM_SHADOW=1, once as a switch loop and once (with computed goto) as a
// direct-threaded loop. This file holds the per-instruction shadow
// semantics; vm.cpp keeps the shadow tables, the frame plumbing that copies
// shadow arguments and results, fault attribution, and the report.
//
// Every scalar slot, module scalar, and array element carries a binary64
// shadow value — "what the all-binary64 run would have computed" — updated
// by each handler's shadow twin right after its primary execute. The
// invariants:
//   * control flow, subscripts, and loop bounds come from the primary values
//     (a shadow-divergent branch is *counted*, never taken);
//   * narrowing sites (casts, kind-4 stores, casting array copies) leave the
//     shadow unrounded — that is where primary and shadow part ways;
//   * nothing a twin does touches the clock, the op-mix, the timers, or any
//     primary state, so a shadowed run is bit-identical in cycles and
//     outcomes to a plain one;
//   * every floating-point tally (introduced_sum, cast_cycles) is summed in
//     per-instruction order, so reports do not depend on the engine.
//
// Each slot's divergence shadow_rel_div(primary, shadow) is computed once,
// when the slot is written, and kept in shadow_divs_; an operand's
// divergence is then a load. The one exception is an operand that is also
// the destination: its divergence is taken against the freshly written
// primary value, which is the operand value the twin sees.
#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "ftn/symbols.h"
#include "sim/decode.h"
#include "sim/vm.h"

namespace prose::sim {

using ftn::Intrinsic;

#ifndef PROSE_HAS_COMPUTED_GOTO
#define PROSE_HAS_COMPUTED_GOTO 0
#endif

namespace {

/// Catastrophic-cancellation detector thresholds: an effective subtraction
/// whose primary result drops this many binade exponents below the larger
/// operand has lost most of the mantissa (binary32 carries 24 bits,
/// binary64 carries 53).
constexpr int kCancelBitsF32 = 20;
constexpr int kCancelBitsF64 = 40;

/// Catastrophic cancellation: an effective subtraction of nearly equal
/// shadow operands whose primary result drops most of its mantissa's worth
/// of binade exponents (complete cancellation to ±0 always counts).
inline bool shadow_cancels(double sx, double sy, double primary, bool f32) {
  if (sx == 0.0 || sy == 0.0 || !std::isfinite(sx) || !std::isfinite(sy)) return false;
  if ((sx > 0.0) == (sy > 0.0)) return false;  // same effective sign: no cancel
  const double big = std::max(std::abs(sx), std::abs(sy));
  const double pr = std::abs(primary);
  const int drop = pr == 0.0 ? INT_MAX : std::ilogb(big) - std::ilogb(pr);
  return drop >= (f32 ? kCancelBitsF32 : kCancelBitsF64);
}

/// Intrinsics in binary64, whatever the primary kind.
inline double shadow_intrinsic1(Intrinsic intr, double x) {
  switch (intr) {
    case Intrinsic::kAbs: return std::abs(x);
    case Intrinsic::kSqrt: return std::sqrt(x);
    case Intrinsic::kExp: return std::exp(x);
    case Intrinsic::kLog: return std::log(x);
    case Intrinsic::kSin: return std::sin(x);
    case Intrinsic::kCos: return std::cos(x);
    case Intrinsic::kTan: return std::tan(x);
    case Intrinsic::kAtan: return std::atan(x);
    default: return x;
  }
}

inline double shadow_intrinsic2(Intrinsic intr, double x, double y) {
  switch (intr) {
    case Intrinsic::kMin: return std::min(x, y);
    case Intrinsic::kMax: return std::max(x, y);
    case Intrinsic::kMod: return std::fmod(x, y);
    case Intrinsic::kSign: return y >= 0.0 ? std::abs(x) : -std::abs(x);
    case Intrinsic::kAtan2: return std::atan2(x, y);
    default: return x;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Shadow twins. Engine locals (VM_SH_LOCALS): `sh` (run-wide tallies), `ss`
// and `sd` (the frame's shadow slots and their cached divergences), `sps`
// (the procedure's stats), `svar`/`savar` (slot and array-slot → tracked
// variable), `sglob` (shadow module scalars).

#define VM_SHADOW 1
#define VM_SS(i) ss[(i)]

#define VM_SH_LOCALS()                                     \
  Vm::ShadowTotals sh = V.shadow_totals_;                  \
  double* ss = nullptr;                                    \
  double* sd = nullptr;                                    \
  ShadowProcStats* sps = nullptr;                          \
  const std::int32_t* svar = nullptr;                      \
  const std::int32_t* savar = nullptr;                     \
  std::int32_t sh_proc = -1;                               \
  double* const sglob = V.shadow_globals_.data();          \
  VM_SH_REFRESH()

#define VM_SH_REFRESH()                                                   \
  do {                                                                    \
    ss = V.shadow_slots_.data() + frame->slot_base;                       \
    sd = V.shadow_divs_.data() + frame->slot_base;                        \
    sh_proc = frame->proc;                                                \
    const auto p_ = static_cast<std::size_t>(sh_proc);                    \
    sps = &V.shadow_procs_[p_];                                           \
    svar = V.slot_var_[p_].data();                                        \
    savar = V.array_var_[p_].data();                                      \
  } while (0)

#define VM_SH_PUBLISH() V.shadow_totals_ = sh

// Divergence of operand slot X as the twin sees it (X's primary value may
// already be the fresh result when X is also the destination D).
#define VM_SH_OPDIV(X, D) ((X) == (D) ? shadow_rel_div(VM_S(X), ss[X]) : sd[X])

// A noted write of slot D with divergence DIV: cache it, fold it into the
// run/procedure maxima and first-divergence site, and charge the variable.
#define VM_SH_WRITE(D, DIV, AT)                                 \
  do {                                                          \
    sd[D] = (DIV);                                              \
    sh.note((DIV), *sps, sh_proc, (AT));                        \
    const std::int32_t var_ = svar[D];                          \
    if (var_ >= 0) V.note_shadow_var(var_, (DIV));              \
  } while (0)

// Per-op introduced divergence: how much worse the result diverges than its
// worst operand — error born at this site, not inherited. rel_div is ≤ 2 for
// finite pairs; the non-finite case is clamped so one NaN cannot swamp a
// procedure's finite blame sum.
#define VM_SH_INTRODUCE(DIV, OD)                                     \
  do {                                                               \
    double intro_ = std::max(0.0, (DIV) - (OD));                     \
    if (!std::isfinite(intro_)) intro_ = 2.0;                        \
    if (intro_ > 0.0) {                                              \
      sps->introduced_sum += intro_;                                 \
      if (intro_ > sps->introduced_max) sps->introduced_max = intro_; \
    }                                                                \
  } while (0)

// An unnoted write (predicates, integer results, loop conditions): the
// value only keeps the divergence cache current.
#define VM_SH_SET(D, VALUE)                               \
  do {                                                    \
    const std::int32_t t_ = (D);                          \
    ss[t_] = (VALUE);                                     \
    sd[t_] = shadow_rel_div(VM_S(t_), ss[t_]);            \
  } while (0)

// Integer results track the primary exactly — subscripts, loop counters,
// and iteration counts must be common to both executions.
#define VM_SH_EXACT(IN) VM_SH_SET((IN)->dst, VM_S((IN)->dst))

#define VM_SH_CONST(IN, AT)                                       \
  do {                                                            \
    const std::int32_t d_ = (IN)->dst;                            \
    ss[d_] = (IN)->imm;                                           \
    VM_SH_WRITE(d_, shadow_rel_div(VM_S(d_), ss[d_]), AT);        \
  } while (0)

// Copies keep both values, so the source's divergence carries over.
#define VM_SH_MOV(IN, AT)                             \
  do {                                                \
    const std::int32_t a_ = (IN)->a;                  \
    const double div_ = sd[a_];                       \
    ss[(IN)->dst] = ss[a_];                           \
    VM_SH_WRITE((IN)->dst, div_, AT);                 \
  } while (0)

#define VM_SH_CASTF64(IN, AT)                         \
  do {                                                \
    const std::int32_t a_ = (IN)->a;                  \
    const double div_ = sd[a_];                       \
    ss[(IN)->dst] = ss[a_];                           \
    sps->cast_cycles += (IN)->cost * scale;           \
    VM_SH_WRITE((IN)->dst, div_, AT);                 \
  } while (0)

// Narrowing (binary32 or a parameterized format) never rounds the shadow;
// the primary rounding shows up as introduced divergence right here.
#define VM_SH_CAST(IN, AT)                                          \
  do {                                                              \
    const std::int32_t d_ = (IN)->dst;                              \
    const std::int32_t a_ = (IN)->a;                                \
    const double od_ = VM_SH_OPDIV(a_, d_);                         \
    ss[d_] = ss[a_];                                                \
    const double div_ = shadow_rel_div(VM_S(d_), ss[d_]);           \
    VM_SH_INTRODUCE(div_, od_);                                     \
    sps->cast_cycles += (IN)->cost * scale;                         \
    VM_SH_WRITE(d_, div_, AT);                                      \
  } while (0)

#define VM_SH_NEG(IN, AT)                                           \
  do {                                                              \
    const std::int32_t d_ = (IN)->dst;                              \
    ss[d_] = -ss[(IN)->a];                                          \
    VM_SH_WRITE(d_, shadow_rel_div(VM_S(d_), ss[d_]), AT);          \
  } while (0)

#define VM_SH_LOADGLOBAL(IN, AT)                                    \
  do {                                                              \
    const std::int32_t d_ = (IN)->dst;                              \
    ss[d_] = sglob[static_cast<std::size_t>((IN)->aux)];            \
    VM_SH_WRITE(d_, shadow_rel_div(VM_S(d_), ss[d_]), AT);          \
  } while (0)

#define VM_SH_STOREGLOBAL(IN, AT)                                           \
  do {                                                                      \
    const auto g_ = static_cast<std::size_t>((IN)->aux);                    \
    const double sv_ = ss[(IN)->a];                                         \
    sglob[g_] = sv_;                                                        \
    const double div_ = shadow_rel_div(V.globals_[g_], sv_);                \
    sh.note(div_, *sps, sh_proc, (AT));                                     \
    const std::int32_t var_ = V.global_var_[g_];                            \
    if (var_ >= 0) V.note_shadow_var(var_, div_);                           \
  } while (0)

// Arithmetic: EXPR over binary64 shadow operands `x`, `y`. CSIGN is the
// effective sign of `y` for the cancellation detector (0 = not an add/sub);
// F32TIER picks the binary32 threshold.
#define VM_SH_BIN(IN, AT, EXPR, CSIGN, F32TIER)                             \
  do {                                                                      \
    const std::int32_t d_ = (IN)->dst;                                      \
    const std::int32_t a_ = (IN)->a;                                        \
    const std::int32_t b_ = (IN)->b;                                        \
    const double od_ = std::max(VM_SH_OPDIV(a_, d_), VM_SH_OPDIV(b_, d_));  \
    const double x = ss[a_];                                                \
    const double y = ss[b_];                                                \
    if ((CSIGN) != 0 && shadow_cancels(x, (CSIGN) * y, VM_S(d_), (F32TIER))) { \
      ++sh.cancellations;                                                   \
      ++sps->cancellations;                                                 \
    }                                                                       \
    ss[d_] = (EXPR);                                                        \
    const double div_ = shadow_rel_div(VM_S(d_), ss[d_]);                   \
    VM_SH_INTRODUCE(div_, od_);                                             \
    VM_SH_WRITE(d_, div_, AT);                                              \
  } while (0)

#define VM_SH_INTRIN1(IN, AT)                                               \
  do {                                                                      \
    const std::int32_t d_ = (IN)->dst;                                      \
    const std::int32_t a_ = (IN)->a;                                        \
    const double od_ = VM_SH_OPDIV(a_, d_);                                 \
    ss[d_] = shadow_intrinsic1(static_cast<Intrinsic>((IN)->aux), ss[a_]);  \
    const double div_ = shadow_rel_div(VM_S(d_), ss[d_]);                   \
    VM_SH_INTRODUCE(div_, od_);                                             \
    VM_SH_WRITE(d_, div_, AT);                                              \
  } while (0)

#define VM_SH_INTRIN2(IN, AT)                                               \
  do {                                                                      \
    const std::int32_t d_ = (IN)->dst;                                      \
    const std::int32_t a_ = (IN)->a;                                        \
    const std::int32_t b_ = (IN)->b;                                        \
    const double od_ = std::max(VM_SH_OPDIV(a_, d_), VM_SH_OPDIV(b_, d_));  \
    ss[d_] = shadow_intrinsic2(static_cast<Intrinsic>((IN)->aux), ss[a_],   \
                               ss[b_]);                                     \
    const double div_ = shadow_rel_div(VM_S(d_), ss[d_]);                   \
    VM_SH_INTRODUCE(div_, od_);                                             \
    VM_SH_WRITE(d_, div_, AT);                                              \
  } while (0)

#define VM_SH_LOADELEM(IN, AT, ARR, LI)                                     \
  do {                                                                      \
    const std::int32_t d_ = (IN)->dst;                                      \
    ss[d_] = (ARR)->has_shadow() ? (ARR)->shadow_get(LI) : (ARR)->get(LI);  \
    VM_SH_WRITE(d_, shadow_rel_div(VM_S(d_), ss[d_]), AT);                  \
  } while (0)

#define VM_SH_STOREELEM(IN, AT, ARR, LI)                              \
  do {                                                                \
    const double sv_ = ss[(IN)->dst];                                 \
    if ((ARR)->has_shadow()) (ARR)->shadow_set(LI, sv_);              \
    const double div_ = shadow_rel_div((ARR)->get(LI), sv_);          \
    sh.note(div_, *sps, sh_proc, (AT));                               \
    const std::int32_t var_ = savar[(IN)->aux];                       \
    if (var_ >= 0) V.note_shadow_var(var_, div_);                     \
  } while (0)

#define VM_SH_FILL(IN, ARR)                                                 \
  do {                                                                      \
    if ((ARR)->has_shadow()) {                                              \
      const double sv_ = ss[(IN)->a];                                       \
      for (std::int64_t e_ = 0; e_ < (ARR)->total(); ++e_) {                \
        (ARR)->shadow_set(e_, sv_);                                         \
      }                                                                     \
    }                                                                       \
  } while (0)

#define VM_SH_COPY(IN, AT, DST, SRC)                                           \
  do {                                                                         \
    if ((DST)->has_shadow()) {                                                 \
      double max_div_ = 0.0;                                                   \
      for (std::int64_t e_ = 0; e_ < (SRC)->total(); ++e_) {                   \
        const double sv_ =                                                     \
            (SRC)->has_shadow() ? (SRC)->shadow_get(e_) : (SRC)->get(e_);      \
        (DST)->shadow_set(e_, sv_);                                            \
        max_div_ = std::max(max_div_, shadow_rel_div((DST)->get(e_), sv_));    \
      }                                                                        \
      sh.note(max_div_, *sps, sh_proc, (AT));                                  \
      const std::int32_t var_ = savar[(IN)->aux];                              \
      if (var_ >= 0) V.note_shadow_var(var_, max_div_);                        \
    }                                                                          \
    if ((DST)->kind() != (SRC)->kind()) {                                      \
      /* Mirror of the primary cast-cycle charge, attributed to this proc. */  \
      const double bytes_ =                                                    \
          mach.bytes_for_kind((DST)->kind()) + mach.bytes_for_kind((SRC)->kind()); \
      sps->cast_cycles += static_cast<double>((SRC)->total()) *                \
                          (0.5 + bytes_ * mach.mem_cost_per_byte * 0.5);       \
    }                                                                          \
  } while (0)

// Reductions accumulate the shadow elements in binary64, in element order.
#define VM_SH_REDUCE(IN, AT, ARR)                                           \
  do {                                                                      \
    const auto sval_ = [&](std::int64_t e) {                                \
      return (ARR)->has_shadow() ? (ARR)->shadow_get(e) : (ARR)->get(e);    \
    };                                                                      \
    double acc_ = (IN)->aux2 == 0 ? 0.0 : sval_(0);                         \
    for (std::int64_t e_ = 0; e_ < (ARR)->total(); ++e_) {                  \
      const double v_ = sval_(e_);                                          \
      if ((IN)->aux2 == 0) {                                                \
        acc_ += v_;                                                         \
      } else if ((IN)->aux2 == 1) {                                         \
        acc_ = std::min(acc_, v_);                                          \
      } else {                                                              \
        acc_ = std::max(acc_, v_);                                          \
      }                                                                     \
    }                                                                       \
    const std::int32_t d_ = (IN)->dst;                                      \
    ss[d_] = acc_;                                                          \
    VM_SH_WRITE(d_, shadow_rel_div(VM_S(d_), ss[d_]), AT);                  \
  } while (0)

// Predicates are computed from the shadow values (so a branch can detect
// control divergence) but never feed arithmetic.
#define VM_SH_LOOPCOND(IN)                                                \
  do {                                                                    \
    const double i_ = ss[(IN)->a];                                        \
    const double hi_ = ss[(IN)->b];                                       \
    const double step_ = ss[(IN)->c];                                     \
    VM_SH_SET((IN)->dst, (step_ > 0.0 ? i_ <= hi_ : i_ >= hi_) ? 1.0 : 0.0); \
  } while (0)

#define VM_SH_BRANCH(IN)                                           \
  do {                                                             \
    const std::int32_t c_ = (IN)->a;                               \
    if ((VM_S(c_) != 0.0) != (ss[c_] != 0.0)) {                    \
      ++sh.control_divs;                                           \
      ++sps->control_divergences;                                  \
    }                                                              \
  } while (0)

#define VM_SH_ALLOC(IN)                                            \
  do {                                                             \
    ArrayStorage* arr_ = VM_ARR((IN)->aux);                        \
    if (arr_ != nullptr && !arr_->has_shadow()) arr_->enable_shadow(); \
  } while (0)

// ---------------------------------------------------------------------------
// Engine instantiations.

#define VM_USE_CGOTO 0
#define VM_ENGINE_NAME vm_engine_shadow_switch
#include "sim/vm_engine.inc"  // NOLINT(bugprone-suspicious-include)
#undef VM_ENGINE_NAME
#undef VM_USE_CGOTO

#if PROSE_HAS_COMPUTED_GOTO

#define VM_USE_CGOTO 1
#define VM_ENGINE_NAME vm_engine_shadow_threaded
#include "sim/vm_engine.inc"  // NOLINT(bugprone-suspicious-include)
#undef VM_ENGINE_NAME
#undef VM_USE_CGOTO

#else  // !PROSE_HAS_COMPUTED_GOTO

Status vm_engine_shadow_threaded(Vm* vm, const DecodedProgram* decoded) {
  return vm_engine_shadow_switch(vm, decoded);
}

#endif  // PROSE_HAS_COMPUTED_GOTO

}  // namespace prose::sim
