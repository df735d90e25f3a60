// Layer timing from outside the program: an in-memory span recorder and a
// replay pipeline that pushes one configuration through the public
// functions of each layer — ftn::parse_and_resolve, ftn::make_variant,
// sim::compile, sim::decode, sim::Vm::call and the spec's metric or series
// function — timing each call and, when a recorder is attached, recording a
// span (name, start, end, parent) around it.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ftn/sema.h"
#include "sim/vm.h"
#include "tuner/search_space.h"
#include "tuner/target.h"

namespace perfbench {

inline double mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and written once, as a Chrome/Perfetto trace.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    int id = 0;
    int parent = -1;  // -1 = root
  };

  SpanRecorder() : origin_(mono_seconds()) {}
  int begin(std::string name, int parent);
  void end(int id);
  [[nodiscard]] std::size_t size() const;
  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// args carry the span id and its parent id.
  bool write_chrome(const std::string& path) const;

 private:
  double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder records nothing but still times the scope.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::string name, int parent)
      : rec_(rec), t0_(mono_seconds()) {
    if (rec_ != nullptr) id_ = rec_->begin(std::move(name), parent);
  }
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Ends the span now and returns its duration in seconds.
  double close() {
    if (!open_) return seconds_;
    open_ = false;
    seconds_ = mono_seconds() - t0_;
    if (rec_ != nullptr) rec_->end(id_);
    return seconds_;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  double t0_;
  int id_ = -1;
  bool open_ = true;
  double seconds_ = 0.0;
};

/// Host time and work counts accumulated per layer by replays.
struct LayerTotals {
  double parse_s = 0.0;
  double transform_s = 0.0;
  double compile_s = 0.0;
  double decode_s = 0.0;
  double vm_setup_s = 0.0;  // the spec's initial-condition hook
  double execute_s = 0.0;            // hardware binary32/binary64 variants
  double softfloat_execute_s = 0.0;  // variants carrying a custom format
  double shadow_execute_s = 0.0;     // binary64 shadow execution
  double measure_s = 0.0;
  std::uint64_t parses = 0;
  std::uint64_t transforms = 0;
  std::uint64_t compiles = 0;
  std::uint64_t wrappers = 0;
  std::uint64_t instructions = 0;
  std::uint64_t softfloat_instructions = 0;
  std::uint64_t shadow_instructions = 0;
  std::uint64_t fused_covered = 0;

  /// Everything a replay spends inside the layers (the busy time).
  [[nodiscard]] double busy_s() const {
    return parse_s + transform_s + compile_s + decode_s + vm_setup_s +
           execute_s + softfloat_execute_s + shadow_execute_s + measure_s;
  }
};

/// The result of pushing one configuration through the layers.
struct Replay {
  bool built = false;   // transform and compile succeeded
  bool ran = false;     // the VM was called
  bool measured = false;
  prose::Status status;
  double cycles = 0.0;
  std::uint64_t instructions = 0;
  /// The spec's outputs: the series, or the scalar metric as one entry.
  std::vector<double> outputs;
};

struct ReplayOptions {
  bool shadow = false;
  /// Simulated-cycle budget (the evaluator's 3x-baseline timeout); 0 = none.
  double cycle_budget = 0.0;
};

class LayerPipeline {
 public:
  /// `rec` may be null (timing only); `totals` must outlive the pipeline.
  LayerPipeline(SpanRecorder* rec, LayerTotals* totals)
      : rec_(rec), totals_(totals) {}

  prose::StatusOr<prose::ftn::ResolvedProgram> parse(
      const prose::tuner::TargetSpec& spec, int parent);

  Replay run(const prose::tuner::TargetSpec& spec,
             const prose::ftn::ResolvedProgram& pristine,
             const prose::tuner::SearchSpace& space,
             const prose::tuner::Config& config, const ReplayOptions& options,
             int parent);

 private:
  SpanRecorder* rec_;
  LayerTotals* totals_;
};

}  // namespace perfbench
