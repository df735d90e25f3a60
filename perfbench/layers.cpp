#include "layers.h"

#include <cstdio>
#include <fstream>

#include "ftn/transform.h"
#include "sim/compile.h"
#include "sim/decode.h"

namespace perfbench {

using namespace prose;

int SpanRecorder::begin(std::string name, int parent) {
  const double t = (mono_seconds() - origin_) * 1e6;
  std::lock_guard lock(mu_);
  Span s;
  s.name = std::move(name);
  s.start_us = t;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end(int id) {
  const double t = (mono_seconds() - origin_) * 1e6;
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = t;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"perfbench\"}}";
  char buf[160];
  for (const Span& s : spans_) {
    const double end = s.end_us < 0.0 ? s.start_us : s.end_us;
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
                  s.start_us, end - s.start_us, s.id, s.parent);
    out << ",\n{\"name\":\"" << json_escape(s.name) << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

StatusOr<ftn::ResolvedProgram> LayerPipeline::parse(
    const tuner::TargetSpec& spec, int parent) {
  Scope span(rec_, "ftn.parse_and_resolve " + spec.name, parent);
  auto rp = ftn::parse_and_resolve(spec.source, spec.name);
  totals_->parse_s += span.close();
  ++totals_->parses;
  return rp;
}

Replay LayerPipeline::run(const tuner::TargetSpec& spec,
                          const ftn::ResolvedProgram& pristine,
                          const tuner::SearchSpace& space,
                          const tuner::Config& config,
                          const ReplayOptions& options, int parent) {
  Replay out;
  ftn::WrapperReport wreport;
  StatusOr<ftn::ResolvedProgram> variant =
      Status(StatusCode::kUnimplemented, "unset");
  {
    Scope span(rec_, "ftn.make_variant", parent);
    variant = ftn::make_variant(pristine.program, space.to_assignment(config),
                                &wreport);
    totals_->transform_s += span.close();
    ++totals_->transforms;
  }
  if (!variant.is_ok()) {
    out.status = variant.status();
    return out;
  }
  totals_->wrappers += static_cast<std::uint64_t>(wreport.wrappers_generated);

  sim::CompileOptions copts;
  for (const auto& proc : spec.hotspot_procs) copts.instrument.insert(proc);
  StatusOr<sim::CompiledProgram> compiled =
      Status(StatusCode::kUnimplemented, "unset");
  {
    Scope span(rec_, "sim.compile", parent);
    compiled = sim::compile(variant.value(), spec.machine, copts);
    totals_->compile_s += span.close();
    ++totals_->compiles;
  }
  if (!compiled.is_ok()) {
    out.status = compiled.status();
    return out;
  }
  out.built = true;

  sim::VmOptions vopts;
  if (options.cycle_budget > 0.0) vopts.cycle_budget = options.cycle_budget;
  if (options.shadow) {
    vopts.shadow = true;  // shadow execution runs on the reference interpreter
  } else {
    Scope span(rec_, "sim.decode", parent);
    auto decoded = sim::decode(compiled.value());
    totals_->decode_s += span.close();
    if (decoded.is_ok()) vopts.decoded = std::move(decoded).value();
  }
  sim::Vm vm(&compiled.value(), vopts);
  if (spec.setup) {
    Scope span(rec_, "spec.setup", parent);
    const Status s = spec.setup(vm);
    totals_->vm_setup_s += span.close();
    if (!s.is_ok()) {
      out.status = s;
      return out;
    }
  }
  const bool soft = !config.two_level();
  sim::RunResult run;
  {
    Scope span(rec_,
               options.shadow ? "sim.Vm::call shadow"
                              : (soft ? "sim.Vm::call softfloat" : "sim.Vm::call"),
               parent);
    run = vm.call(spec.entry);
    const double dt = span.close();
    if (options.shadow) {
      totals_->shadow_execute_s += dt;
      totals_->shadow_instructions += run.instructions;
    } else if (soft) {
      totals_->softfloat_execute_s += dt;
      totals_->softfloat_instructions += run.instructions;
    } else {
      totals_->execute_s += dt;
    }
    totals_->instructions += run.instructions;
    totals_->fused_covered += run.fused.covered();
  }
  out.ran = true;
  out.cycles = run.cycles;
  out.instructions = run.instructions;
  out.status = run.status;
  if (!run.status.is_ok()) return out;

  Scope span(rec_, "spec.measure", parent);
  if (spec.series_fn) {
    auto series = spec.series_fn(vm);
    if (series.is_ok()) {
      out.outputs = std::move(series).value();
      out.measured = true;
    } else {
      out.status = series.status();
    }
  } else if (spec.metric) {
    auto metric = spec.metric(vm);
    if (metric.is_ok()) {
      out.outputs = {metric.value()};
      out.measured = true;
    } else {
      out.status = metric.status();
    }
  }
  totals_->measure_s += span.close();
  return out;
}

}  // namespace perfbench
