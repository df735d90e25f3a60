#include "sim/vm.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace prose::sim {

using ftn::Intrinsic;

// ---------------------------------------------------------------------------
// ArrayStorage
// ---------------------------------------------------------------------------

ArrayStorage::ArrayStorage(int kind, int rank, const std::int64_t* extents)
    : kind_(kind), rank_(rank) {
  total_ = 1;
  for (int r = 0; r < rank; ++r) {
    PROSE_CHECK_MSG(extents[r] > 0, "array extent must be positive");
    extents_[r] = extents[r];
    total_ *= extents[r];
  }
  if (kind_ == 4) {
    f32_.assign(static_cast<std::size_t>(total_), 0.0f);
  } else {
    f64_.assign(static_cast<std::size_t>(total_), 0.0);
  }
  if (prec::is_custom_kind(kind_)) {
    custom_ = true;
    spec_ = prec::decode_kind(kind_);
  }
}

void ArrayStorage::enable_shadow() {
  shadow_.resize(static_cast<std::size_t>(total_));
  for (std::int64_t i = 0; i < total_; ++i) {
    shadow_[static_cast<std::size_t>(i)] = get(i);
  }
}

// ---------------------------------------------------------------------------
// Vm
// ---------------------------------------------------------------------------

namespace {

/// Op-mix accounting for the flight recorder. Observability only — never
/// feeds the cost model. Loop entries are classified at the kLoopBegin case
/// (the vectorization verdict lives in the loop metadata, not the opcode).
void count_op(Op op, OpMix& mix) {
  switch (op) {
    case Op::kAddF32: case Op::kSubF32: case Op::kMulF32: case Op::kDivF32:
    case Op::kPowF32: case Op::kNegF32:
      ++mix.fp32_arith;
      break;
    case Op::kAddF64: case Op::kSubF64: case Op::kMulF64: case Op::kDivF64:
    case Op::kPowF64: case Op::kNegF64:
      ++mix.fp64_arith;
      break;
    case Op::kAddFmt: case Op::kSubFmt: case Op::kMulFmt: case Op::kDivFmt:
    case Op::kPowFmt: case Op::kNegFmt:
      ++mix.fmt_arith;
      break;
    case Op::kCastFmt:
      ++mix.casts;
      break;
    case Op::kAddI: case Op::kSubI: case Op::kMulI: case Op::kDivI:
    case Op::kPowI: case Op::kNegI: case Op::kCastInt:
      ++mix.int_arith;
      break;
    case Op::kCastF32: case Op::kCastF64:
      ++mix.casts;
      break;
    case Op::kLoadElem: case Op::kStoreElem: case Op::kArrayFill:
    case Op::kArrayCopy: case Op::kReduce:
      ++mix.mem;
      break;
    case Op::kCall:
      ++mix.calls;
      break;
    case Op::kJmp: case Op::kJmpIfFalse: case Op::kLoopCond:
      ++mix.branches;
      break;
    case Op::kIntrin1: case Op::kIntrin2:
      ++mix.intrinsics;
      break;
    default:
      ++mix.other;
      break;
  }
}

}  // namespace

Vm::Vm(const CompiledProgram* program, VmOptions options)
    : program_(program),
      options_(options),
      timers_(&clock_, gptl::TimerOptions{
                           .overhead_cycles_per_pair = program->machine.gptl_overhead_cycles}) {
  PROSE_CHECK(program_ != nullptr);
  shadow_ = options_.shadow;
  if (shadow_) init_shadow_tables();
  reset();
}

void Vm::reset() {
  globals_.clear();
  globals_.reserve(program_->global_scalars.size());
  for (const auto& g : program_->global_scalars) globals_.push_back(g.init);
  global_arrays_.clear();
  global_arrays_.reserve(program_->global_arrays.size());
  for (const auto& g : program_->global_arrays) {
    global_arrays_.emplace_back(g.kind, g.rank, g.extents);
  }
  slots_.clear();
  frames_.clear();
  proc_stats_.assign(program_->procs.size(), ProcRunStats{});
  print_log_.clear();
  cast_cycles_ = 0.0;
  instructions_ = 0;
  op_mix_ = OpMix{};
  fused_ = FusedStats{};
  if (shadow_) {
    shadow_globals_ = globals_;
    for (auto& arr : global_arrays_) arr.enable_shadow();
    shadow_slots_.clear();
    shadow_divs_.clear();
    shadow_procs_.assign(program_->procs.size(), ShadowProcStats{});
    std::fill(shadow_vars_.begin(), shadow_vars_.end(), ShadowVarStats{});
    shadow_totals_ = ShadowTotals{};
    shadow_fault_proc_ = -1;
  }
}

Status Vm::set_scalar(const std::string& qualified, double value) {
  const auto it = program_->global_scalar_index.find(qualified);
  if (it == program_->global_scalar_index.end()) {
    return Status(StatusCode::kNotFound, "no module scalar '" + qualified + "'");
  }
  // The shadow copy keeps the unrounded binary64 input — shadow execution is
  // "what the all-binary64 run would have computed".
  if (shadow_) shadow_globals_[static_cast<std::size_t>(it->second)] = value;
  const int kind = program_->global_scalars[static_cast<std::size_t>(it->second)].kind;
  if (kind != 8) value = prec::quantize_kind(kind, value);
  globals_[static_cast<std::size_t>(it->second)] = value;
  return Status::ok();
}

StatusOr<double> Vm::get_scalar(const std::string& qualified) const {
  const auto it = program_->global_scalar_index.find(qualified);
  if (it == program_->global_scalar_index.end()) {
    return Status(StatusCode::kNotFound, "no module scalar '" + qualified + "'");
  }
  return globals_[static_cast<std::size_t>(it->second)];
}

Status Vm::set_array(const std::string& qualified, std::span<const double> values) {
  const auto it = program_->global_array_index.find(qualified);
  if (it == program_->global_array_index.end()) {
    return Status(StatusCode::kNotFound, "no module array '" + qualified + "'");
  }
  ArrayStorage& arr = global_arrays_[static_cast<std::size_t>(it->second)];
  if (static_cast<std::int64_t>(values.size()) != arr.total()) {
    return Status(StatusCode::kInvalidArgument,
                  "size mismatch for '" + qualified + "': expected " +
                      std::to_string(arr.total()) + ", got " +
                      std::to_string(values.size()));
  }
  for (std::int64_t i = 0; i < arr.total(); ++i) {
    arr.set(i, values[static_cast<std::size_t>(i)]);
    if (shadow_) arr.shadow_set(i, values[static_cast<std::size_t>(i)]);
  }
  return Status::ok();
}

StatusOr<std::vector<double>> Vm::get_array(const std::string& qualified) const {
  const auto it = program_->global_array_index.find(qualified);
  if (it == program_->global_array_index.end()) {
    return Status(StatusCode::kNotFound, "no module array '" + qualified + "'");
  }
  const ArrayStorage& arr = global_arrays_[static_cast<std::size_t>(it->second)];
  std::vector<double> out(static_cast<std::size_t>(arr.total()));
  for (std::int64_t i = 0; i < arr.total(); ++i) {
    out[static_cast<std::size_t>(i)] = arr.get(i);
  }
  return out;
}

StatusOr<std::int64_t> Vm::array_size(const std::string& qualified) const {
  const auto it = program_->global_array_index.find(qualified);
  if (it == program_->global_array_index.end()) {
    return Status(StatusCode::kNotFound, "no module array '" + qualified + "'");
  }
  return global_arrays_[static_cast<std::size_t>(it->second)].total();
}

const ProcRunStats* Vm::proc_stats(const std::string& qualified) const {
  const auto it = program_->proc_index.find(qualified);
  if (it == program_->proc_index.end()) return nullptr;
  return &proc_stats_[static_cast<std::size_t>(it->second)];
}

Status Vm::fault(const std::string& message) const {
  std::string where;
  if (!frames_.empty()) {
    where = " in " + program_->procs[static_cast<std::size_t>(frames_.back().proc)].qualified();
  }
  return Status(StatusCode::kRuntimeFault, message + where);
}

void Vm::bind_frame_arrays(Frame& frame, const ProcMeta& meta, const CallSiteMeta* site) {
  frame.arrays.resize(meta.arrays.size(), nullptr);
  for (std::size_t i = 0; i < meta.arrays.size(); ++i) {
    const ArraySlotMeta& a = meta.arrays[i];
    switch (a.binding) {
      case ArrayBinding::kGlobal:
        frame.arrays[i] = &global_arrays_[static_cast<std::size_t>(a.global_index)];
        break;
      case ArrayBinding::kLocal: {
        frame.owned.push_back(std::make_unique<ArrayStorage>(a.kind, a.rank, a.extents));
        frame.arrays[i] = frame.owned.back().get();
        break;
      }
      case ArrayBinding::kAutomatic:
        frame.arrays[i] = nullptr;  // allocated by kAllocArray
        break;
      case ArrayBinding::kDummy: {
        PROSE_CHECK(site != nullptr);
        const auto& binding =
            site->array_args[static_cast<std::size_t>(a.dummy_position)];
        // Caller is the frame below the new one.
        const Frame& caller = frames_[frames_.size() - 2];
        frame.arrays[i] =
            caller.arrays[static_cast<std::size_t>(binding.caller_array_slot)];
        break;
      }
    }
  }
}

Status Vm::push_frame(std::int32_t proc_index, std::int32_t site_index,
                      std::int32_t return_pc) {
  if (frames_.size() >= options_.max_frames) {
    return fault("call stack overflow");
  }
  const ProcMeta& meta = program_->procs[static_cast<std::size_t>(proc_index)];
  const CallSiteMeta* site =
      site_index >= 0 ? &program_->call_sites[static_cast<std::size_t>(site_index)] : nullptr;

  Frame frame;
  frame.proc = proc_index;
  frame.slot_base = slots_.size();
  frame.return_pc = return_pc;
  frame.site = site_index;
  frame.caller_slot_base = frames_.empty() ? 0 : frames_.back().slot_base;
  frame.scale = (site != nullptr && site->inlined) ? site->inline_scale : 1.0;
  frame.entry_cycles = clock_.now();
  slots_.resize(slots_.size() + static_cast<std::size_t>(meta.num_slots), 0.0);
  if (shadow_) {
    shadow_slots_.resize(slots_.size(), 0.0);
    shadow_divs_.resize(slots_.size(), 0.0);
  }
  frames_.push_back(std::move(frame));

  Frame& f = frames_.back();
  bind_frame_arrays(f, meta, site);
  if (shadow_) {
    for (auto& owned : f.owned) {
      if (!owned->has_shadow()) owned->enable_shadow();
    }
  }

  // Copy scalar arguments (kinds already match by the wrapper invariant).
  if (site != nullptr) {
    PROSE_CHECK(site->scalar_args.size() == meta.scalar_param_slots.size());
    for (std::size_t i = 0; i < site->scalar_args.size(); ++i) {
      const std::size_t to =
          f.slot_base + static_cast<std::size_t>(meta.scalar_param_slots[i]);
      const std::size_t from =
          f.caller_slot_base +
          static_cast<std::size_t>(site->scalar_args[i].value_slot);
      slots_[to] = slots_[from];
      if (shadow_) {
        shadow_slots_[to] = shadow_slots_[from];
        shadow_divs_[to] = shadow_divs_[from];
      }
    }
  }
  if (meta.instrument) {
    if (Status s = timers_.start(meta.qualified()); !s.is_ok()) return s;
  }
  return Status::ok();
}

Status Vm::pop_frame(std::int32_t& pc) {
  Frame& f = frames_.back();
  const ProcMeta& meta = program_->procs[static_cast<std::size_t>(f.proc)];
  const double inclusive = clock_.now() - f.entry_cycles;
  ProcRunStats& stats = proc_stats_[static_cast<std::size_t>(f.proc)];
  stats.calls += 1;
  stats.inclusive_cycles += inclusive;
  stats.exclusive_cycles += inclusive - f.child_cycles;

  if (meta.instrument) {
    if (Status s = timers_.stop(meta.qualified()); !s.is_ok()) return s;
  }

  // Writebacks and result copy into the caller. Shadow values ride along
  // unrounded; element indices always come from the primary slots.
  if (f.site >= 0) {
    const CallSiteMeta& site = program_->call_sites[static_cast<std::size_t>(f.site)];
    for (std::size_t i = 0; i < site.scalar_args.size(); ++i) {
      const ScalarArgMeta& arg = site.scalar_args[i];
      if (arg.writeback == WritebackKind::kNone) continue;
      const std::size_t from =
          f.slot_base + static_cast<std::size_t>(meta.scalar_param_slots[i]);
      const double value = slots_[from];
      const double shadow_value = shadow_ ? shadow_slots_[from] : 0.0;
      switch (arg.writeback) {
        case WritebackKind::kSlot: {
          const std::size_t to =
              f.caller_slot_base + static_cast<std::size_t>(arg.wb_slot);
          slots_[to] = value;
          if (shadow_) {
            shadow_slots_[to] = shadow_value;
            shadow_divs_[to] = shadow_divs_[from];
          }
          break;
        }
        case WritebackKind::kGlobal: {
          double v = value;
          const int gk =
              program_->global_scalars[static_cast<std::size_t>(arg.wb_slot)].kind;
          if (gk != 8) v = prec::quantize_kind(gk, v);
          globals_[static_cast<std::size_t>(arg.wb_slot)] = v;
          if (shadow_) {
            shadow_globals_[static_cast<std::size_t>(arg.wb_slot)] = shadow_value;
            if (global_var_[static_cast<std::size_t>(arg.wb_slot)] >= 0) {
              note_shadow_var(global_var_[static_cast<std::size_t>(arg.wb_slot)],
                              shadow_rel_div(v, shadow_value));
            }
          }
          break;
        }
        case WritebackKind::kElement: {
          const Frame& caller = frames_[frames_.size() - 2];
          ArrayStorage* arr =
              caller.arrays[static_cast<std::size_t>(arg.wb_array)];
          const auto idx_value = [&](int r) -> std::int64_t {
            if (arg.wb_index[r] < 0) return 1;
            return static_cast<std::int64_t>(
                slots_[f.caller_slot_base + static_cast<std::size_t>(arg.wb_index[r])]);
          };
          const std::int64_t linear =
              arr->linearize(idx_value(0), idx_value(1), idx_value(2));
          if (linear < 0) return fault("out-of-bounds writeback");
          arr->set(linear, value);
          if (shadow_ && arr->has_shadow()) arr->shadow_set(linear, shadow_value);
          break;
        }
        case WritebackKind::kNone:
          break;
      }
    }
    if (site.result_slot >= 0 && meta.result_slot >= 0) {
      const std::size_t to =
          f.caller_slot_base + static_cast<std::size_t>(site.result_slot);
      const std::size_t from =
          f.slot_base + static_cast<std::size_t>(meta.result_slot);
      slots_[to] = slots_[from];
      if (shadow_) {
        shadow_slots_[to] = shadow_slots_[from];
        shadow_divs_[to] = shadow_divs_[from];
      }
    }
  }

  pc = f.return_pc;
  slots_.resize(f.slot_base);
  if (shadow_) {
    shadow_slots_.resize(f.slot_base);
    shadow_divs_.resize(f.slot_base);
  }
  frames_.pop_back();
  if (!frames_.empty()) frames_.back().child_cycles += inclusive;
  return Status::ok();
}

RunResult Vm::call(const std::string& qualified_proc) {
  RunResult result;
  const auto it = program_->proc_index.find(qualified_proc);
  if (it == program_->proc_index.end()) {
    result.status = Status(StatusCode::kNotFound, "no procedure '" + qualified_proc + "'");
    return result;
  }
  const ProcMeta& meta = program_->procs[static_cast<std::size_t>(it->second)];
  if (!meta.scalar_param_slots.empty() || !meta.arrays.empty()) {
    // Entry procedures may reference module arrays (bound lazily as globals),
    // but must not have dummies.
    for (const auto& a : meta.arrays) {
      if (a.binding == ArrayBinding::kDummy) {
        result.status = Status(StatusCode::kInvalidArgument,
                               "entry procedure must have no arguments");
        return result;
      }
    }
    if (!meta.scalar_param_slots.empty()) {
      result.status = Status(StatusCode::kInvalidArgument,
                             "entry procedure must have no arguments");
      return result;
    }
  }

  // Resolve the engine up front: a decode failure (malformed program) must
  // surface before any frame is pushed or any cycle is charged.
  const VmDispatch mode = resolved_dispatch();
  const DecodedProgram* decoded = nullptr;
  if (mode != VmDispatch::kInterpret) {
    auto d = ensure_decoded();
    if (!d.is_ok()) {
      result.status = d.status();
      return result;
    }
    decoded = d.value();
  }

  run_start_cycles_ = clock_.now();
  const double cast_start = cast_cycles_;
  const std::uint64_t instr_start = instructions_;
  op_mix_ = OpMix{};  // per-call mix (observability; see RunResult::op_mix)
  fused_ = FusedStats{};

  Status pushed = push_frame(it->second, /*site_index=*/-1, /*return_pc=*/-1);
  if (!pushed.is_ok()) {
    result.status = pushed;
    return result;
  }
  switch (mode) {
    case VmDispatch::kThreaded:
      result.status = shadow_ ? vm_engine_shadow_threaded(this, decoded)
                              : vm_engine_threaded(this, decoded, nullptr);
      break;
    case VmDispatch::kSwitch:
      result.status = shadow_ ? vm_engine_shadow_switch(this, decoded)
                              : vm_engine_switch(this, decoded);
      break;
    default:
      result.status = run_loop();
      break;
  }
  if (shadow_ && !result.status.is_ok()) note_shadow_fault(result.status);
  // Unwind any remaining frames on fault/timeout so the VM can be reused.
  while (!frames_.empty()) {
    const Frame& f = frames_.back();
    const ProcMeta& m = program_->procs[static_cast<std::size_t>(f.proc)];
    if (m.instrument) (void)timers_.stop(m.qualified());
    slots_.resize(f.slot_base);
    frames_.pop_back();
  }
  result.cycles = clock_.now() - run_start_cycles_;
  result.cast_cycles = cast_cycles_ - cast_start;
  result.instructions = instructions_ - instr_start;
  result.op_mix = op_mix_;
  result.fused = fused_;
  return result;
}

Status Vm::run_loop() {
  const std::vector<Instr>& code = program_->code;
  std::int32_t pc = program_->procs[static_cast<std::size_t>(frames_.back().proc)].first_instr;
  const bool trap = options_.trap_nonfinite;
  const MachineModel& mach = program_->machine;

  const auto check_finite_f = [&](float v) { return !trap || std::isfinite(v); };
  const auto check_finite_d = [&](double v) { return !trap || std::isfinite(v); };

  std::uint64_t since_budget_check = 0;

  while (true) {
    PROSE_CHECK(pc >= 0 && static_cast<std::size_t>(pc) < code.size());
    const Instr& in = code[static_cast<std::size_t>(pc)];
    Frame& frame = frames_.back();
    const std::size_t base = frame.slot_base;
    if (in.cost > 0.0) clock_.advance(in.cost * frame.scale);
    ++instructions_;
    count_op(in.op, op_mix_);

    if (++since_budget_check >= 256) {
      since_budget_check = 0;
      if (clock_.now() - run_start_cycles_ > options_.cycle_budget) {
        fault_pc_ = pc;
        return Status(StatusCode::kTimeout, "cycle budget exceeded");
      }
      if (instructions_ > options_.max_instructions) {
        fault_pc_ = pc;
        return Status(StatusCode::kRuntimeFault, "instruction limit exceeded");
      }
    }

    const auto S = [&](std::int32_t idx) -> double& {
      return slots_[base + static_cast<std::size_t>(idx)];
    };
    const auto ARR = [&](std::int32_t idx) -> ArrayStorage* {
      return frame.arrays[static_cast<std::size_t>(idx)];
    };

    switch (in.op) {
      case Op::kNop:
      case Op::kLoopEnd:
        break;
      case Op::kLoadConst:
        S(in.dst) = in.imm;
        break;
      case Op::kMov:
        S(in.dst) = S(in.a);
        break;
      case Op::kCastF32: {
        const double x = S(in.a);
        const auto v = static_cast<float>(x);
        // Overflow in the narrowing conversion itself (finite f64 that has no
        // finite f32 counterpart) is a runtime error, as with -ffpe-trap.
        if (trap && std::isfinite(x) && !std::isfinite(v)) {
          fault_pc_ = pc;
          return fault("overflow converting to real(kind=4)");
        }
        S(in.dst) = static_cast<double>(v);
        cast_cycles_ += in.cost * frame.scale;
        break;
      }
      case Op::kCastF64:
        S(in.dst) = S(in.a);
        cast_cycles_ += in.cost * frame.scale;
        break;
      case Op::kCastInt: {
        const double v = S(in.a);
        double r = 0.0;
        if (in.aux2 == 0) {
          r = std::trunc(v);
        } else if (in.aux2 == 1) {
          r = std::floor(v);
        } else {
          r = std::round(v);
        }
        S(in.dst) = r;
        break;
      }
      case Op::kLoadGlobal:
        S(in.dst) = globals_[static_cast<std::size_t>(in.aux)];
        break;
      case Op::kStoreGlobal: {
        double v = S(in.a);
        const int gkind =
            program_->global_scalars[static_cast<std::size_t>(in.aux)].kind;
        if (gkind == 4) {
          const auto narrowed = static_cast<float>(v);
          if (trap && std::isfinite(v) && !std::isfinite(narrowed)) {
            fault_pc_ = pc;
            return fault("overflow storing to real(kind=4) module variable");
          }
          v = static_cast<double>(narrowed);
        } else if (prec::is_custom_kind(gkind)) {
          bool ovf = false;
          const double q =
              prec::quantize_checked(prec::decode_kind(gkind), v, &ovf);
          if (trap && ovf) {
            fault_pc_ = pc;
            return fault("overflow storing to real(" + prec::kind_name(gkind) +
                         ") module variable");
          }
          v = q;
        }
        globals_[static_cast<std::size_t>(in.aux)] = v;
        break;
      }

#define PROSE_F32_BINOP(OPNAME, EXPR)                                    \
  case Op::OPNAME: {                                                     \
    const float x = static_cast<float>(S(in.a));                         \
    const float y = static_cast<float>(S(in.b));                         \
    const float r = (EXPR);                                              \
    if (!check_finite_f(r)) {                                            \
      fault_pc_ = pc;                                                    \
      return fault("non-finite f32 result");                             \
    }                                                                    \
    S(in.dst) = static_cast<double>(r);                                  \
    break;                                                               \
  }
#define PROSE_F64_BINOP(OPNAME, EXPR)                                    \
  case Op::OPNAME: {                                                     \
    const double x = S(in.a);                                            \
    const double y = S(in.b);                                            \
    const double r = (EXPR);                                             \
    if (!check_finite_d(r)) {                                            \
      fault_pc_ = pc;                                                    \
      return fault("non-finite f64 result");                             \
    }                                                                    \
    S(in.dst) = r;                                                       \
    break;                                                               \
  }

      PROSE_F32_BINOP(kAddF32, x + y)
      PROSE_F32_BINOP(kSubF32, x - y)
      PROSE_F32_BINOP(kMulF32, x * y)
      PROSE_F32_BINOP(kDivF32, x / y)
      PROSE_F32_BINOP(kPowF32, std::pow(x, y))
      PROSE_F64_BINOP(kAddF64, x + y)
      PROSE_F64_BINOP(kSubF64, x - y)
      PROSE_F64_BINOP(kMulF64, x * y)
      PROSE_F64_BINOP(kDivF64, x / y)
      PROSE_F64_BINOP(kPowF64, std::pow(x, y))
#undef PROSE_F32_BINOP
#undef PROSE_F64_BINOP

// Parameterized-format arithmetic: compute in binary64, quantize the result
// (see prec/format.h for why the double rounding is innocuous). A finite
// binary64 result that leaves the format's finite range is a directed
// overflow fault, mirroring the kCastF32 narrowing trap.
#define PROSE_FMT_BINOP(OPNAME, EXPR)                                    \
  case Op::OPNAME: {                                                     \
    const double x = S(in.a);                                            \
    const double y = S(in.b);                                            \
    bool ovf = false;                                                    \
    const double r =                                                     \
        prec::quantize_checked(prec::decode_kind(in.kind), (EXPR), &ovf); \
    if (trap && ovf) {                                                   \
      fault_pc_ = pc;                                                    \
      return fault("overflow in " + prec::kind_name(in.kind) +           \
                   " arithmetic");                                       \
    }                                                                    \
    if (!check_finite_d(r)) {                                            \
      fault_pc_ = pc;                                                    \
      return fault("non-finite " + prec::kind_name(in.kind) + " result"); \
    }                                                                    \
    S(in.dst) = r;                                                       \
    break;                                                               \
  }

      PROSE_FMT_BINOP(kAddFmt, x + y)
      PROSE_FMT_BINOP(kSubFmt, x - y)
      PROSE_FMT_BINOP(kMulFmt, x * y)
      PROSE_FMT_BINOP(kDivFmt, x / y)
      PROSE_FMT_BINOP(kPowFmt, std::pow(x, y))
#undef PROSE_FMT_BINOP

      case Op::kNegFmt:
        S(in.dst) = prec::quantize_kind(in.kind, -S(in.a));
        break;
      case Op::kCastFmt: {
        const double x = S(in.a);
        bool ovf = false;
        const double v =
            prec::quantize_checked(prec::decode_kind(in.kind), x, &ovf);
        if (trap && ovf) {
          fault_pc_ = pc;
          return fault("overflow converting to real(" +
                       prec::kind_name(in.kind) + ")");
        }
        S(in.dst) = v;
        cast_cycles_ += in.cost * frame.scale;
        break;
      }

      case Op::kAddI: S(in.dst) = S(in.a) + S(in.b); break;
      case Op::kSubI: S(in.dst) = S(in.a) - S(in.b); break;
      case Op::kMulI: S(in.dst) = S(in.a) * S(in.b); break;
      case Op::kDivI: {
        const double b = S(in.b);
        if (b == 0.0) {
          fault_pc_ = pc;
          return fault("integer division by zero");
        }
        S(in.dst) = std::trunc(S(in.a) / b);
        break;
      }
      case Op::kPowI: {
        const double r = std::pow(S(in.a), S(in.b));
        S(in.dst) = std::trunc(r);
        break;
      }
      case Op::kNegF32:
        S(in.dst) = static_cast<double>(-static_cast<float>(S(in.a)));
        break;
      case Op::kNegF64:
        S(in.dst) = -S(in.a);
        break;
      case Op::kNegI:
        S(in.dst) = -S(in.a);
        break;

      case Op::kCmpEq: S(in.dst) = S(in.a) == S(in.b) ? 1.0 : 0.0; break;
      case Op::kCmpNe: S(in.dst) = S(in.a) != S(in.b) ? 1.0 : 0.0; break;
      case Op::kCmpLt: S(in.dst) = S(in.a) < S(in.b) ? 1.0 : 0.0; break;
      case Op::kCmpLe: S(in.dst) = S(in.a) <= S(in.b) ? 1.0 : 0.0; break;
      case Op::kCmpGt: S(in.dst) = S(in.a) > S(in.b) ? 1.0 : 0.0; break;
      case Op::kCmpGe: S(in.dst) = S(in.a) >= S(in.b) ? 1.0 : 0.0; break;

      case Op::kAnd: S(in.dst) = (S(in.a) != 0.0 && S(in.b) != 0.0) ? 1.0 : 0.0; break;
      case Op::kOr: S(in.dst) = (S(in.a) != 0.0 || S(in.b) != 0.0) ? 1.0 : 0.0; break;
      case Op::kNot: S(in.dst) = S(in.a) == 0.0 ? 1.0 : 0.0; break;
      case Op::kEqv: S(in.dst) = ((S(in.a) != 0.0) == (S(in.b) != 0.0)) ? 1.0 : 0.0; break;
      case Op::kNeqv: S(in.dst) = ((S(in.a) != 0.0) != (S(in.b) != 0.0)) ? 1.0 : 0.0; break;

      case Op::kIntrin1: {
        const auto intr = static_cast<Intrinsic>(in.aux);
        const bool f32 = in.kind == 4;
        double r = 0.0;
        const double x = S(in.a);
        switch (intr) {
          case Intrinsic::kAbs: r = std::abs(x); break;
          case Intrinsic::kSqrt:
            r = f32 ? static_cast<double>(std::sqrt(static_cast<float>(x))) : std::sqrt(x);
            break;
          case Intrinsic::kExp:
            r = f32 ? static_cast<double>(std::exp(static_cast<float>(x))) : std::exp(x);
            break;
          case Intrinsic::kLog:
            r = f32 ? static_cast<double>(std::log(static_cast<float>(x))) : std::log(x);
            break;
          case Intrinsic::kSin:
            r = f32 ? static_cast<double>(std::sin(static_cast<float>(x))) : std::sin(x);
            break;
          case Intrinsic::kCos:
            r = f32 ? static_cast<double>(std::cos(static_cast<float>(x))) : std::cos(x);
            break;
          case Intrinsic::kTan:
            r = f32 ? static_cast<double>(std::tan(static_cast<float>(x))) : std::tan(x);
            break;
          case Intrinsic::kAtan:
            r = f32 ? static_cast<double>(std::atan(static_cast<float>(x))) : std::atan(x);
            break;
          default:
            fault_pc_ = pc;
            return fault("unknown unary intrinsic");
        }
        if (prec::is_custom_kind(in.kind)) r = prec::quantize_kind(in.kind, r);
        if (!check_finite_d(r)) {
          fault_pc_ = pc;
          return fault("non-finite intrinsic result");
        }
        S(in.dst) = r;
        break;
      }
      case Op::kIntrin2: {
        const auto intr = static_cast<Intrinsic>(in.aux);
        const bool f32 = in.kind == 4;
        const double x = S(in.a);
        const double y = S(in.b);
        double r = 0.0;
        switch (intr) {
          case Intrinsic::kMin: r = std::min(x, y); break;
          case Intrinsic::kMax: r = std::max(x, y); break;
          case Intrinsic::kMod:
            r = f32 ? static_cast<double>(
                          std::fmod(static_cast<float>(x), static_cast<float>(y)))
                    : std::fmod(x, y);
            break;
          case Intrinsic::kSign:
            r = y >= 0.0 ? std::abs(x) : -std::abs(x);
            break;
          case Intrinsic::kAtan2:
            r = f32 ? static_cast<double>(
                          std::atan2(static_cast<float>(x), static_cast<float>(y)))
                    : std::atan2(x, y);
            break;
          default:
            fault_pc_ = pc;
            return fault("unknown binary intrinsic");
        }
        if (prec::is_custom_kind(in.kind)) r = prec::quantize_kind(in.kind, r);
        if (!check_finite_d(r)) {
          fault_pc_ = pc;
          return fault("non-finite intrinsic result");
        }
        S(in.dst) = r;
        break;
      }

      case Op::kLoadElem: {
        ArrayStorage* arr = ARR(in.aux);
        const auto idx = [&](std::int32_t s) -> std::int64_t {
          return s < 0 ? 1 : static_cast<std::int64_t>(S(s));
        };
        const std::int64_t linear = arr->linearize(idx(in.a), idx(in.b), idx(in.c));
        if (linear < 0) {
          fault_pc_ = pc;
          return fault("array subscript out of bounds (read)");
        }
        S(in.dst) = arr->get(linear);
        break;
      }
      case Op::kStoreElem: {
        ArrayStorage* arr = ARR(in.aux);
        const auto idx = [&](std::int32_t s) -> std::int64_t {
          return s < 0 ? 1 : static_cast<std::int64_t>(S(s));
        };
        const std::int64_t linear = arr->linearize(idx(in.a), idx(in.b), idx(in.c));
        if (linear < 0) {
          fault_pc_ = pc;
          return fault("array subscript out of bounds (write)");
        }
        const double v = S(in.dst);
        if (!check_finite_d(v)) {
          fault_pc_ = pc;
          return fault("storing non-finite value");
        }
        if (arr->kind() == 4 && trap && !std::isfinite(static_cast<float>(v))) {
          fault_pc_ = pc;
          return fault("overflow storing to real(kind=4) array");
        }
        if (trap && prec::is_custom_kind(arr->kind())) {
          bool ovf = false;
          (void)prec::quantize_checked(prec::decode_kind(arr->kind()), v, &ovf);
          if (ovf) {
            fault_pc_ = pc;
            return fault("overflow storing to real(" +
                         prec::kind_name(arr->kind()) + ") array");
          }
        }
        arr->set(linear, v);
        break;
      }
      case Op::kArrayFill: {
        ArrayStorage* arr = ARR(in.aux);
        const double v = S(in.a);
        for (std::int64_t i = 0; i < arr->total(); ++i) arr->set(i, v);
        const double bytes = mach.bytes_for_kind(arr->kind());
        clock_.advance(static_cast<double>(arr->total()) *
                       (bytes * mach.mem_cost_per_byte + 0.1));
        break;
      }
      case Op::kArrayCopy: {
        ArrayStorage* dst = ARR(in.aux);
        ArrayStorage* src = ARR(in.aux2);
        if (dst->total() != src->total()) {
          fault_pc_ = pc;
          return fault("array shape mismatch in copy");
        }
        const bool narrowing = dst->kind() == 4 && src->kind() == 8;
        const bool custom_dst =
            prec::is_custom_kind(dst->kind()) && dst->kind() != src->kind();
        const prec::FormatSpec dspec =
            custom_dst ? prec::decode_kind(dst->kind()) : prec::FormatSpec{};
        for (std::int64_t i = 0; i < src->total(); ++i) {
          const double v = src->get(i);
          if (narrowing && trap && std::isfinite(v) &&
              !std::isfinite(static_cast<float>(v))) {
            fault_pc_ = pc;
            return fault("overflow converting array to real(kind=4)");
          }
          if (custom_dst && trap) {
            bool ovf = false;
            (void)prec::quantize_checked(dspec, v, &ovf);
            if (ovf) {
              fault_pc_ = pc;
              return fault("overflow converting array to real(" +
                           prec::kind_name(dst->kind()) + ")");
            }
          }
          dst->set(i, v);
        }
        const double bytes =
            mach.bytes_for_kind(dst->kind()) + mach.bytes_for_kind(src->kind());
        double per_elem = bytes * mach.mem_cost_per_byte + 0.25;
        double cast_part = 0.0;
        if (dst->kind() != src->kind()) {
          cast_part = 0.5;  // convert per element on top of the traffic
          per_elem += cast_part;
          cast_cycles_ += static_cast<double>(src->total()) *
                          (cast_part + bytes * mach.mem_cost_per_byte * 0.5);
        }
        clock_.advance(static_cast<double>(src->total()) * per_elem);
        break;
      }
      case Op::kReduce: {
        ArrayStorage* arr = ARR(in.aux);
        double r = 0.0;
        if (arr->kind() == 4) {
          float acc = in.aux2 == 0 ? 0.0f
                                   : static_cast<float>(arr->get(0));
          for (std::int64_t i = 0; i < arr->total(); ++i) {
            const auto v = static_cast<float>(arr->get(i));
            if (in.aux2 == 0) {
              acc += v;
            } else if (in.aux2 == 1) {
              acc = std::min(acc, v);
            } else {
              acc = std::max(acc, v);
            }
          }
          r = static_cast<double>(acc);
        } else if (prec::is_custom_kind(arr->kind())) {
          // Sum accumulates in the array's own format (each partial sum is
          // quantized); min/max of representable values are exact.
          const prec::FormatSpec spec = prec::decode_kind(arr->kind());
          double acc = in.aux2 == 0 ? 0.0 : arr->get(0);
          for (std::int64_t i = 0; i < arr->total(); ++i) {
            const double v = arr->get(i);
            if (in.aux2 == 0) {
              acc = prec::quantize(spec, acc + v);
            } else if (in.aux2 == 1) {
              acc = std::min(acc, v);
            } else {
              acc = std::max(acc, v);
            }
          }
          r = acc;
        } else {
          double acc = in.aux2 == 0 ? 0.0 : arr->get(0);
          for (std::int64_t i = 0; i < arr->total(); ++i) {
            const double v = arr->get(i);
            if (in.aux2 == 0) {
              acc += v;
            } else if (in.aux2 == 1) {
              acc = std::min(acc, v);
            } else {
              acc = std::max(acc, v);
            }
          }
          r = acc;
        }
        if (!check_finite_d(r)) {
          fault_pc_ = pc;
          return fault("non-finite reduction result");
        }
        S(in.dst) = r;
        const double lanes = static_cast<double>(mach.lanes_for_kind(arr->kind()));
        const double bytes = mach.bytes_for_kind(arr->kind());
        clock_.advance(static_cast<double>(arr->total()) *
                       (bytes * mach.mem_cost_per_byte + mach.cost_add / lanes));
        break;
      }
      case Op::kArraySize: {
        const ArrayStorage* arr = ARR(in.aux);
        S(in.dst) = in.aux2 == 0 ? static_cast<double>(arr->total())
                                 : static_cast<double>(arr->extent(in.aux2 - 1));
        break;
      }
      case Op::kAllReduce:
        S(in.dst) = S(in.a);  // single simulated process owns the domain
        break;

      case Op::kJmp:
        pc = in.aux;
        continue;
      case Op::kJmpIfFalse:
        if (S(in.a) == 0.0) {
          pc = in.aux;
          continue;
        }
        break;
      case Op::kLoopCond: {
        const double i = S(in.a);
        const double hi = S(in.b);
        const double step = S(in.c);
        S(in.dst) = (step > 0.0 ? i <= hi : i >= hi) ? 1.0 : 0.0;
        break;
      }
      case Op::kLoopBegin:
        if (in.aux >= 0 &&
            static_cast<std::size_t>(in.aux) < program_->loops.size() &&
            program_->loops[static_cast<std::size_t>(in.aux)].vectorized) {
          ++op_mix_.vector_loop_entries;
        } else {
          ++op_mix_.scalar_loop_entries;
        }
        break;

      case Op::kAllocArray: {
        const ProcMeta& meta = program_->procs[static_cast<std::size_t>(frame.proc)];
        const ArraySlotMeta& a = meta.arrays[static_cast<std::size_t>(in.aux)];
        std::int64_t extents[3] = {1, 1, 1};
        for (int r = 0; r < a.rank; ++r) {
          if (a.extents[r] == -2) {
            extents[r] = static_cast<std::int64_t>(
                S(a.extent_slots[r]));
          } else {
            extents[r] = a.extents[r];
          }
          if (extents[r] <= 0) {
            fault_pc_ = pc;
            return fault("non-positive automatic array extent");
          }
        }
        frame.owned.push_back(std::make_unique<ArrayStorage>(a.kind, a.rank, extents));
        frame.arrays[static_cast<std::size_t>(in.aux)] = frame.owned.back().get();
        break;
      }

      case Op::kCall: {
        if (Status s = push_frame(in.aux, in.aux2, pc + 1); !s.is_ok()) return s;
        pc = program_->procs[static_cast<std::size_t>(in.aux)].first_instr;
        continue;
      }
      case Op::kRet: {
        std::int32_t ret = -1;
        if (Status s = pop_frame(ret); !s.is_ok()) return s;
        if (frames_.empty()) return Status::ok();
        pc = ret;
        continue;
      }
      case Op::kPrint: {
        const PrintMeta& meta = program_->prints[static_cast<std::size_t>(in.aux2)];
        print_log_ += meta.text;
        char buf[40];
        for (const auto s : meta.arg_slots) {
          std::snprintf(buf, sizeof buf, " %.9g", S(s));
          print_log_ += buf;
        }
        print_log_ += '\n';
        break;
      }
      case Op::kHalt:
        return Status::ok();
    }
    ++pc;
  }
}

// ---------------------------------------------------------------------------
// Shadow execution
// ---------------------------------------------------------------------------
//
// The per-instruction shadow semantics live in the shadow engines
// (vm_shadow.cpp). This file keeps what every engine shares: the
// slot/array/global → variable tables, the shadow halves of push_frame and
// pop_frame, fault attribution, and the report.

std::int32_t Vm::shadow_var_index(const std::string& name) {
  if (name.empty()) return -1;
  const auto it = shadow_var_index_.find(name);
  if (it != shadow_var_index_.end()) return it->second;
  const auto idx = static_cast<std::int32_t>(shadow_vars_.size());
  shadow_var_index_[name] = idx;
  shadow_vars_.push_back(ShadowVarStats{});
  shadow_var_names_.push_back(name);
  return idx;
}

void Vm::init_shadow_tables() {
  global_var_.resize(program_->global_scalars.size(), -1);
  for (std::size_t g = 0; g < program_->global_scalars.size(); ++g) {
    global_var_[g] = shadow_var_index(program_->global_scalars[g].qualified);
  }
  slot_var_.resize(program_->procs.size());
  array_var_.resize(program_->procs.size());
  for (std::size_t p = 0; p < program_->procs.size(); ++p) {
    const ProcMeta& meta = program_->procs[p];
    slot_var_[p].assign(static_cast<std::size_t>(meta.num_slots), -1);
    for (std::size_t s = 0; s < meta.slot_names.size() &&
                            s < slot_var_[p].size(); ++s) {
      slot_var_[p][s] = shadow_var_index(meta.slot_names[s]);
    }
    array_var_[p].assign(meta.arrays.size(), -1);
    for (std::size_t a = 0; a < meta.arrays.size(); ++a) {
      const ArraySlotMeta& am = meta.arrays[a];
      std::string name = am.name;
      if (name.empty() && am.binding == ArrayBinding::kGlobal) {
        name = program_->global_arrays[static_cast<std::size_t>(am.global_index)]
                   .qualified;
      }
      array_var_[p][a] = shadow_var_index(name);
    }
  }
}

void Vm::note_shadow_fault(const Status& status) {
  if (frames_.empty()) return;
  const Frame& f = frames_.back();
  shadow_fault_proc_ = f.proc;
  shadow_procs_[static_cast<std::size_t>(f.proc)].faulted = true;
  const double inf = std::numeric_limits<double>::infinity();
  shadow_totals_.note(inf, shadow_procs_[static_cast<std::size_t>(f.proc)], f.proc,
                      fault_pc_);
  if (status.code() != StatusCode::kRuntimeFault || fault_pc_ < 0) return;
  // Name the overflow/non-finite target when the faulting instruction has
  // one — this is how "demote cond_probe → binary32 overflow" gets pinned to
  // the variable instead of just the procedure.
  const Instr& in = program_->code[static_cast<std::size_t>(fault_pc_)];
  const auto& vars = slot_var_[static_cast<std::size_t>(f.proc)];
  const auto named_slot = [&](std::int32_t s) -> std::int32_t {
    if (s < 0 || static_cast<std::size_t>(s) >= vars.size()) return -1;
    return vars[static_cast<std::size_t>(s)];
  };
  std::int32_t var = -1;
  switch (in.op) {
    case Op::kStoreGlobal:
      var = global_var_[static_cast<std::size_t>(in.aux)];
      break;
    case Op::kStoreElem:
    case Op::kArrayFill:
    case Op::kArrayCopy:
      var = array_var_[static_cast<std::size_t>(f.proc)]
                      [static_cast<std::size_t>(in.aux)];
      break;
    default:
      var = named_slot(in.dst);
      break;
  }
  if (var >= 0) note_shadow_var(var, inf);
}

ShadowReport Vm::shadow_report() const {
  ShadowReport report;
  report.enabled = shadow_;
  if (!shadow_) return report;
  const ShadowTotals& t = shadow_totals_;
  report.max_rel_div = t.max_div;
  report.cancellations = t.cancellations;
  report.control_divergences = t.control_divs;
  if (t.first_div_proc >= 0) {
    const ProcMeta& meta = program_->procs[static_cast<std::size_t>(t.first_div_proc)];
    report.has_first_divergence = true;
    report.first_divergence_proc = meta.qualified();
    report.first_divergence_instr =
        t.first_div_instr >= 0 ? t.first_div_instr - meta.first_instr : -1;
  }
  if (shadow_fault_proc_ >= 0) {
    report.fault_proc =
        program_->procs[static_cast<std::size_t>(shadow_fault_proc_)].qualified();
  }
  for (std::size_t v = 0; v < shadow_vars_.size(); ++v) {
    if (shadow_vars_[v].writes == 0) continue;
    report.vars[shadow_var_names_[v]] = shadow_vars_[v];
  }
  for (std::size_t p = 0; p < shadow_procs_.size(); ++p) {
    const ShadowProcStats& ps = shadow_procs_[p];
    const bool active = ps.introduced_sum > 0.0 || ps.cancellations > 0 ||
                        ps.control_divergences > 0 || ps.cast_cycles > 0.0 ||
                        ps.max_rel_div > 0.0 || ps.faulted;
    if (!active) continue;
    report.procs[program_->procs[p].qualified()] = ps;
  }
  return report;
}

}  // namespace prose::sim
