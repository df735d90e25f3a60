// perfbench — the campaign benchmark.
//
//   perfbench --workload <table2|klevel|served|diagnose> --seed <n>
//             --seconds <s> --trace <0|1> [--noise-seed 2024] [--out <dir>]
//   perfbench --selftest
//
// Runs one workload of precision-tuning campaigns in-process, checks the
// campaigns' outputs, and prints the metrics; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, timed with no
// instrumentation beyond clock reads around whole campaigns. With --trace 1
// the workload runs one round and then replays every evaluated
// configuration through the layers' public functions with spans, writes a
// Chrome/Perfetto trace under --out, and reports the per-layer metrics.
// The exit code is non-zero when any check fails. See README.md.
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "checks.h"
#include "layers.h"
#include "models/models.h"
#include "prec/format.h"
#include "serve/client.h"
#include "serve/result_store.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "support/json.h"
#include "tuner/campaign.h"
#include "tuner/eval_codec.h"
#include "tuner/journal.h"

namespace {

using namespace prose;
using namespace perfbench;
namespace fs = std::filesystem;

const double g_process_start = mono_seconds();
std::atomic<bool> g_stop{false};

extern "C" void on_signal(int) { g_stop.store(true); }

/// A failed check, a failed campaign, or an interruption: the run ends with
/// a non-zero exit after every destructor (server teardown, temporary files)
/// has run.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(const std::string& reason) {
  if (!reason.empty()) throw BenchError("check failed: " + reason);
}

double cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t noise_seed = 2024;
  std::string out = ".bench_build/perfbench-out";
  bool selftest = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw BenchError("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v != "0";
    } else if (flag == "--noise-seed") {
      a.noise_seed = std::stoull(v);
    } else if (flag == "--out") {
      a.out = v;
    } else {
      throw BenchError("unknown flag " + flag);
    }
  }
  return a;
}

/// Campaign order within a round: a Fisher-Yates shuffle driven by
/// splitmix64(seed, round). Every order runs the same campaigns, whose
/// results do not depend on it.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed,
                                      std::uint64_t round) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + round + 1;
  const auto next = [&x] {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[next() % i]);
  return order;
}

tuner::TargetSpec target_for(const std::string& model) {
  if (model == "funarc") return models::funarc_target();
  if (model == "MPAS-A") return models::mpas_target();
  if (model == "ADCIRC") return models::adcirc_target();
  if (model == "MOM6") return models::mom6_target();
  throw BenchError("unknown model " + model);
}

const std::vector<std::string> kTable2Models = {"funarc", "MPAS-A", "ADCIRC",
                                                "MOM6"};
const char* const kKLevelFormats = "binary16,bfloat16,binary32,binary64";

/// One campaign of a workload round.
struct Job {
  std::string tag;  // "MPAS-A", "MPAS-A/klevel"
  tuner::TargetSpec spec;
  tuner::CampaignOptions options;
  bool klevel = false;
};

struct JobRun {
  tuner::CampaignResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

JobRun run_job(const Job& job) {
  JobRun run;
  const double w0 = mono_seconds();
  const double c0 = cpu_seconds();
  auto result = tuner::run_campaign(job.spec, job.options);
  run.cpu_s = cpu_seconds() - c0;
  run.wall_s = mono_seconds() - w0;
  if (g_stop.load()) throw BenchError("interrupted");
  if (!result.is_ok()) {
    throw BenchError(job.tag + " campaign failed: " + result.status().to_string());
  }
  run.result = std::move(result).value();
  return run;
}

std::unique_ptr<tuner::Evaluator> create_evaluator(const tuner::TargetSpec& spec,
                                                   std::uint64_t noise_seed) {
  auto ev = tuner::Evaluator::create(spec, noise_seed);
  if (!ev.is_ok()) {
    throw BenchError(spec.name + ": evaluator: " + ev.status().to_string());
  }
  return std::move(ev).value();
}

tuner::Config final_config(const tuner::SearchResult& s) {
  return s.best.has_value() ? *s.best : s.accepted;
}

double geomean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(sum / static_cast<double>(xs.size()));
}

/// In-run estimate of one round's cost: per campaign, the median of its
/// repetitions in this run, summed over the round's campaigns. Host speed
/// drifts over minutes as well as switching between phases lasting seconds;
/// over series of Table II rounds the median moved less between runs than
/// the fastest repetition did, which follows the drift and picks up rare
/// fast outliers.
double sum_of_medians(const std::vector<std::vector<double>>& samples) {
  double total = 0.0;
  for (std::vector<double> s : samples) {
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    total += n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
  }
  return total;
}

/// Rounds per run: --seconds over the workload's nominal round time on the
/// reference host, at least one. The count depends only on the arguments,
/// so every run computes the same estimator over the same operations. A
/// k-level round is one operation per model and runs exactly once.
std::size_t rounds_for(const Args& args) {
  double nominal = 0.0;
  if (args.workload == "table2") nominal = 9.0;
  if (args.workload == "diagnose") nominal = 20.0;
  if (args.workload == "served") nominal = 0.4;
  if (nominal == 0.0) return 1;
  return std::max<std::size_t>(1, static_cast<std::size_t>(args.seconds / nominal));
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// ---------------------------------------------------------------------------
// Replays through the layers.

/// Per-model replay state: the pristine program and its search space, parsed
/// once per model through the timed frontend.
struct ModelReplay {
  ftn::ResolvedProgram pristine;
  tuner::SearchSpace space;
  Replay baseline;
};

class Replayer {
 public:
  Replayer(SpanRecorder* rec, LayerTotals* totals) : rec_(rec), layers_(rec, totals) {}

  ModelReplay& model(const tuner::TargetSpec& spec, int parent) {
    auto it = models_.find(spec.name);
    if (it != models_.end()) return it->second;
    auto rp = layers_.parse(spec, parent);
    if (!rp.is_ok()) throw BenchError(spec.name + ": parse: " + rp.status().to_string());
    ModelReplay m;
    m.pristine = std::move(rp).value();
    auto space = tuner::SearchSpace::build(m.pristine, spec.atom_scopes,
                                           spec.exclude_atoms);
    if (!space.is_ok()) {
      throw BenchError(spec.name + ": search space: " + space.status().to_string());
    }
    m.space = std::move(space).value();
    Scope span(rec_, "baseline " + spec.name, parent);
    m.baseline = layers_.run(spec, m.pristine, m.space, m.space.uniform(8), {},
                             span.id());
    if (!m.baseline.measured) {
      throw BenchError(spec.name + ": baseline replay failed: " +
                       m.baseline.status.to_string());
    }
    return models_.emplace(spec.name, std::move(m)).first->second;
  }

  Replay run(const tuner::TargetSpec& spec, const tuner::Config& config,
             bool shadow, int parent) {
    ModelReplay& m = model(spec, parent);
    ReplayOptions o;
    o.shadow = shadow;
    o.cycle_budget = 3.0 * m.baseline.cycles;
    return layers_.run(spec, m.pristine, m.space, config, o, parent);
  }

  /// Replays a campaign's final configuration, checks its cycles against the
  /// record, and rechecks its error from the outputs of this replay and of
  /// the baseline replay with the benchmark's own error metrics.
  void recheck_final(const Job& job, const tuner::CampaignResult& r, int parent) {
    const tuner::Config fin = final_config(r.search);
    ModelReplay& m = model(job.spec, parent);
    const std::string what = job.tag + " final variant";
    double recorded_error = 0.0;
    const tuner::VariantRecord* rec = nullptr;
    for (const auto& v : r.search.records) {
      if (v.config == fin) {
        rec = &v;
        break;
      }
    }
    if (rec != nullptr) {
      recorded_error = rec->eval.error;
    } else if (!(fin == m.space.uniform(8))) {
      require(what + ": not among the campaign's records");
    }
    const Replay fr = run(job.spec, fin, false, parent);
    if (!fr.measured) require(what + ": replay failed: " + fr.status.to_string());
    if (rec != nullptr) {
      require(check_cycles(what, fr.cycles, rec->eval.whole_cycles));
    }
    require(check_recomputed_error(what, m.baseline.outputs, fr.outputs,
                                   static_cast<bool>(job.spec.series_fn),
                                   job.spec.series_group_size, recorded_error,
                                   job.spec.error_threshold));
  }

  /// Replays every distinct configuration the campaign evaluated; checks
  /// each one's simulated cycles and the instruction total. `local` is false
  /// for served campaigns, whose variants ran on the server. Returns the
  /// replayed busy seconds (baseline included).
  double replay_all(const Job& job, const tuner::CampaignResult& r, bool local,
                    LayerTotals* totals, int parent) {
    const double busy0 = totals->busy_s();
    Scope span(rec_, "replay " + job.tag, parent);
    ModelReplay& m = model(job.spec, span.id());
    std::uint64_t instructions = m.baseline.instructions;
    std::set<std::string> seen;
    for (const auto& v : r.search.records) {
      if (!seen.insert(v.config.key()).second) continue;
      Scope vs(rec_, "variant " + v.config.key(), span.id());
      const Replay rp = run(job.spec, v.config, false, vs.id());
      const bool compiled = v.eval.outcome != tuner::Outcome::kCompileError;
      if (rp.built != compiled) {
        require(job.tag + " variant " + v.config.key() +
                ": replay build result differs from the record");
      }
      if (rp.ran) {
        require(check_cycles(job.tag + " variant " + v.config.key(), rp.cycles,
                             v.eval.whole_cycles));
        if (local) instructions += rp.instructions;
      }
    }
    require(check_instruction_total(job.tag, instructions,
                                    r.vm_exec.instructions));
    // The baseline replay is per model; a model's later campaigns in the same
    // replay still paid for their own baseline inside the campaign.
    return totals->busy_s() - busy0;
  }

 private:
  SpanRecorder* rec_;
  LayerPipeline layers_;
  std::map<std::string, ModelReplay> models_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics.

struct LayerReport {
  LayerTotals totals;
  double campaign_wall_s = 0.0;  // traced round, all campaigns
  double jobs_weighted_wall_s = 0.0;  // Σ jobs × campaign wall
  double replay_busy_s = 0.0;         // busy seconds replayed for those campaigns
  double diagnose_s = 0.0;
  /// Campaign time outside the replayed layers: search, memo, registry.
  double other_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t final_soft_atoms = 0;
  // served
  double request_s = 0.0;
  std::uint64_t request_items = 0;
  std::uint64_t batches = 0;
  double codec_s = 0.0;
  std::uint64_t codec_items = 0;
  std::uint64_t store_hits = 0;
  double client_baseline_s = 0.0;
  double store_put_s = 0.0;
  std::uint64_t store_puts = 0;
  double store_reload_s = 0.0;
  double journal_append_s = 0.0;
  std::uint64_t journal_appends = 0;
};

double per(double total, std::uint64_t n, double scale) {
  return n == 0 ? 0.0 : total * scale / static_cast<double>(n);
}

std::vector<Metric> layer_metrics(const LayerReport& L) {
  const LayerTotals& t = L.totals;
  const std::uint64_t hw_instr =
      t.instructions - t.softfloat_instructions - t.shadow_instructions;
  return {
      {"ftn.parse_ms", "ms", t.parse_s * 1e3},
      {"ftn.transform_s", "s", t.transform_s},
      {"ftn.transform_us_per_variant", "us", per(t.transform_s, t.transforms, 1e6)},
      {"ftn.wrappers", "count", static_cast<double>(t.wrappers)},
      {"sim.compile_s", "s", t.compile_s},
      {"sim.compile_us_per_variant", "us", per(t.compile_s, t.compiles, 1e6)},
      {"sim.decode_s", "s", t.decode_s},
      {"sim.execute_s", "s", t.execute_s},
      {"sim.ns_per_instr", "ns", per(t.execute_s, hw_instr, 1e9)},
      {"sim.instructions", "count", static_cast<double>(t.instructions)},
      {"sim.fused_frac", "ratio",
       per(static_cast<double>(t.fused_covered), t.instructions - t.shadow_instructions, 1.0)},
      {"sim.softfloat_execute_s", "s", t.softfloat_execute_s},
      {"sim.softfloat_ns_per_instr", "ns",
       per(t.softfloat_execute_s, t.softfloat_instructions, 1e9)},
      {"sim.shadow_execute_s", "s", t.shadow_execute_s},
      {"sim.shadow_ns_per_instr", "ns",
       per(t.shadow_execute_s, t.shadow_instructions, 1e9)},
      {"tuner.diagnose_s", "s", L.diagnose_s},
      {"tuner.measure_s", "s", t.measure_s},
      {"tuner.cache_hits", "count", static_cast<double>(L.cache_hits)},
      {"tuner.other_s", "s", L.other_s},
      {"support.pool_utilisation", "ratio",
       L.jobs_weighted_wall_s > 0.0 ? L.replay_busy_s / L.jobs_weighted_wall_s : 0.0},
      {"prec.final_soft_atoms", "count", static_cast<double>(L.final_soft_atoms)},
      {"serve.request_us", "us", per(L.request_s, L.request_items, 1e6)},
      {"serve.batch_ms", "ms", per(L.request_s, L.batches, 1e3)},
      {"serve.codec_us", "us", per(L.codec_s, L.codec_items, 1e6)},
      {"serve.store_hits", "count", static_cast<double>(L.store_hits)},
      {"serve.client_baseline_s", "s", L.client_baseline_s},
      {"serve.store_put_us", "us", per(L.store_put_s, L.store_puts, 1e6)},
      {"serve.store_reload_s", "s", L.store_reload_s},
      {"tuner.journal_append_us", "us", per(L.journal_append_s, L.journal_appends, 1e6)},
  };
}

std::uint64_t soft_atoms(const tuner::Config& c) {
  std::uint64_t n = 0;
  for (const auto k : c.kinds) {
    if (k != 4 && k != 8) ++n;
  }
  return n;
}

/// A fresh directory under .bench_build, removed on every exit path. The
/// path is relative to the working directory (the checkout root): unix
/// socket paths are limited to about 107 bytes and the checkout may sit deep
/// in the file system.
struct TempDir {
  fs::path dir;
  TempDir(const std::string& tag, std::uint64_t seed)
      : dir(fs::path(".bench_build") /
            (tag + "-" + std::to_string(::getpid()) + "-" + std::to_string(seed))) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] std::string file(const std::string& name) const {
    std::string safe = name;
    for (char& c : safe) {
      if (c == '/') c = '-';
    }
    return (dir / safe).string();
  }
};

/// Moves the calling thread to the next CPU of its affinity set every
/// `period`, for as long as it lives, then restores the original set. On a
/// shared host each vCPU switches between a fast and a slow state on its
/// own; a single busy thread that the scheduler keeps on one vCPU measures
/// that vCPU's state, while one moved in turn over all of them measures
/// their average. Used by the workloads that run one busy thread.
class CpuRotation {
 public:
  explicit CpuRotation(std::chrono::milliseconds period)
      : tid_(static_cast<pid_t>(::syscall(SYS_gettid))) {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) return;
    thread_ = std::thread([this, period] {
      std::unique_lock lock(mu_);
      for (std::size_t k = 0; !done_; ++k) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        sched_setaffinity(tid_, sizeof one, &one);
        cv_.wait_for(lock, period, [this] { return done_; });
      }
    });
  }
  ~CpuRotation() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
    sched_setaffinity(tid_, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  pid_t tid_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Local workloads: table2, klevel, diagnose.

std::vector<Job> local_jobs(const std::string& workload, std::uint64_t noise_seed) {
  std::vector<Job> jobs;
  const auto add = [&](const std::string& model, std::size_t threads,
                       bool klevel, bool diagnose) {
    Job j;
    j.spec = target_for(model);
    j.tag = model + (klevel ? "/klevel" : "");
    j.klevel = klevel;
    j.options.noise_seed = noise_seed;
    j.options.jobs = threads;
    j.options.diagnose = diagnose;
    j.options.stop = &g_stop;
    if (klevel) j.options.formats = prec::parse_format_list(kKLevelFormats);
    jobs.push_back(std::move(j));
  };
  if (workload == "table2") {
    for (const auto& m : kTable2Models) add(m, 1, false, false);
  } else if (workload == "klevel") {
    for (const auto& m : kTable2Models) {
      add(m, 2, true, false);
      add(m, 2, false, false);
    }
  } else if (workload == "diagnose") {
    add("ADCIRC", 1, false, true);
    add("MOM6", 1, false, true);
  }
  return jobs;
}

/// §V: the shadow diagnosis must name the paper's root causes.
void check_ranking(const Job& job, const tuner::CampaignDiagnosis& d) {
  const auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (job.spec.name == "ADCIRC") {
    if (d.atoms.empty() || !ends_with(d.atoms.front().qualified, "spectral_est")) {
      require("ADCIRC: top critical atom is " +
              (d.atoms.empty() ? std::string("none") : d.atoms.front().qualified) +
              ", not spectral_est");
    }
  } else if (job.spec.name == "MOM6") {
    bool found = false;
    for (std::size_t i = 0; i < d.procedures.size() && i < 3; ++i) {
      found = found || ends_with(d.procedures[i].qualified, "zonal_flux_adjust");
    }
    if (!found) require("MOM6: zonal_flux_adjust not among the top-3 procedures");
  }
}

tuner::Outcome run_outcome(const Replay& r) {
  if (r.status.is_ok() || r.measured) return tuner::Outcome::kPass;
  return r.status.code() == StatusCode::kTimeout ? tuner::Outcome::kTimeout
                                                 : tuner::Outcome::kRuntimeError;
}

/// Re-runs each diagnosed configuration without shadow execution (and, in a
/// traced run, with it, through Vm::call and through Evaluator::diagnose).
void check_diagnosed(const Job& job, const tuner::CampaignResult& r,
                     Replayer& replayer, tuner::Evaluator& fresh, bool traced,
                     SpanRecorder* rec, LayerReport* report, int parent) {
  std::map<std::string, const tuner::Config*> by_key;
  for (const auto& v : r.search.records) by_key.emplace(v.config.key(), &v.config);
  for (const tuner::BlameReport& b : r.diagnosis.reports) {
    const auto it = by_key.find(b.key);
    if (it == by_key.end()) require(job.tag + ": diagnosed key not in records");
    const std::string what = job.tag + " diagnosed " + b.key;
    Scope span(rec, "diagnosed " + b.key, parent);
    const Replay plain = replayer.run(job.spec, *it->second, false, span.id());
    require(check_shadow_outcome(what, run_outcome(plain), b.outcome));
    if (!traced) continue;
    const Replay shadow = replayer.run(job.spec, *it->second, true, span.id());
    require(check_shadow_outcome(what, run_outcome(plain), run_outcome(shadow)));
    require(check_cycles(what + " (shadow)", plain.cycles, shadow.cycles));
    Scope ds(rec, "tuner.Evaluator::diagnose", span.id());
    auto again = fresh.diagnose(*it->second);
    report->diagnose_s += ds.close();
    if (!again.is_ok()) require(what + ": diagnose: " + again.status().to_string());
  }
}

Result run_local(const Args& args) {
  std::vector<Job> jobs = local_jobs(args.workload, args.noise_seed);
  const bool klevel = args.workload == "klevel";
  // The set-up runs on one thread on every workload; it lasts a fraction of
  // a second, so it is moved to the next CPU every 25 ms to span them all.
  // The timed phase of the --jobs 1 workloads is moved every 250 ms.
  // Threads inherit the mask of the thread that creates them, so klevel's
  // worker pools start after its rotation has ended.
  std::unique_ptr<CpuRotation> rotation;
  if (!args.trace) {
    rotation = std::make_unique<CpuRotation>(std::chrono::milliseconds(25));
  }

  // Set-up: build each target and create its evaluator (parse, resolve,
  // search space, baseline run). These fresh evaluators serve the checks.
  std::map<std::string, std::unique_ptr<tuner::Evaluator>> fresh;
  for (const Job& j : jobs) {
    if (fresh.count(j.spec.name) == 0) {
      fresh[j.spec.name] = create_evaluator(j.spec, args.noise_seed);
    }
  }
  const double setup_s = mono_seconds() - g_process_start;
  rotation.reset();
  if (!klevel && !args.trace) {
    rotation = std::make_unique<CpuRotation>(std::chrono::milliseconds(250));
  }

  // A traced run journals its round, to time the campaigns again with every
  // evaluation replayed from the journal (tuner.other_s).
  std::unique_ptr<TempDir> journals;
  if (args.trace) {
    journals = std::make_unique<TempDir>("journals", args.seed);
    for (Job& j : jobs) j.options.journal_path = journals->file(j.tag + ".journal");
  }

  // Timed phase: a fixed number of whole rounds, set by --seconds.
  std::vector<std::vector<JobRun>> rounds;
  const std::size_t n_rounds = args.trace ? 1 : rounds_for(args);
  while (rounds.size() < n_rounds) {
    std::vector<JobRun> round(jobs.size());
    for (const std::size_t j : seeded_order(jobs.size(), args.seed, rounds.size())) {
      round[j] = run_job(jobs[j]);
    }
    rounds.push_back(std::move(round));
  }
  rotation.reset();

  Result out;
  std::vector<std::vector<double>> walls(jobs.size()), cpus(jobs.size());
  for (const auto& round : rounds) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      walls[j].push_back(round[j].wall_s);
      cpus[j].push_back(round[j].cpu_s);
      if (!same_search(round[j].result.search, rounds[0][j].result.search)) {
        require(jobs[j].tag + ": a repeated campaign differs from the first");
      }
    }
  }

  // Operations and the search-side metrics, from the first round (every
  // round is bit-identical, checked above).
  const auto& first = rounds[0];
  std::vector<double> speedups;
  double variants = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (klevel && !jobs[j].klevel) continue;
    speedups.push_back(first[j].result.summary.best_speedup);
    variants += static_cast<double>(first[j].result.summary.total);
  }
  std::uint64_t ops_per_round = speedups.size();
  std::uint64_t failed_per_round = 0;
  if (klevel) {
    // A bigger lattice must never give a worse answer: the k-level campaign
    // fails when its speedup is below the same model's two-level one.
    for (std::size_t j = 0; j + 1 < jobs.size(); j += 2) {
      if (first[j].result.summary.best_speedup <
          first[j + 1].result.summary.best_speedup) {
        ++failed_per_round;
        std::cerr << "klevel: " << jobs[j].spec.name << " k-level speedup "
                  << first[j].result.summary.best_speedup << " < two-level "
                  << first[j + 1].result.summary.best_speedup << "\n";
      }
    }
  }
  out.attempted = ops_per_round * rounds.size();
  out.failed = failed_per_round * rounds.size();

  // Checks.
  SpanRecorder recorder;
  SpanRecorder* rec = args.trace ? &recorder : nullptr;
  LayerReport report;
  Replayer replayer(rec, &report.totals);
  Scope root(rec, "perfbench " + args.workload, -1);
  std::set<std::string> minimal_checked;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const tuner::CampaignResult& r = first[j].result;
    Scope cs(rec, "checks " + job.tag, root.id());
    replayer.recheck_final(job, r, cs.id());
    if (!job.klevel && r.search.one_minimal &&
        minimal_checked.insert(job.spec.name).second) {
      require(check_one_minimal(job.tag, *fresh.at(job.spec.name), r.search.accepted));
    }
    if (job.options.diagnose) {
      check_ranking(job, r.diagnosis);
      check_diagnosed(job, r, replayer, *fresh.at(job.spec.name), false, rec,
                      &report, cs.id());
    }
  }

  if (!args.trace) {
    out.metrics = {
        {"campaign_s", "s", sum_of_medians(walls)},
        {"cpu_s", "s", sum_of_medians(cpus)},
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"variants", "count", variants},
        {"tuned_speedup", "x", geomean(speedups)},
    };
    return out;
  }

  // Traced run: replay every evaluated configuration through the layers,
  // with a report and replayer of its own (the checks' replays stay out).
  report = LayerReport{};
  Replayer tracer_replay(rec, &report.totals);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const tuner::CampaignResult& r = first[j].result;
    const std::size_t threads = job.options.jobs;
    report.replay_busy_s +=
        tracer_replay.replay_all(job, r, /*local=*/true, &report.totals, root.id());
    report.campaign_wall_s += first[j].wall_s;
    report.jobs_weighted_wall_s += static_cast<double>(threads) * first[j].wall_s;
    report.cache_hits += r.search.cache_hits;
    if (job.klevel) report.final_soft_atoms += soft_atoms(final_config(r.search));
    if (job.options.diagnose) {
      // The campaign's diagnosis is one Evaluator::diagnose per diagnosed
      // variant; the plain and shadow Vm replays beside it are checks.
      const double diagnose0 = report.diagnose_s;
      check_diagnosed(job, r, tracer_replay, *fresh.at(job.spec.name), true,
                      rec, &report, root.id());
      report.replay_busy_s += report.diagnose_s - diagnose0;
    }
  }
  // The same campaigns resumed from their journals evaluate nothing but the
  // baseline: their wall time less a fresh evaluator's creation is the time
  // spent outside the layers. Resume must reproduce the search exactly.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Job resumed = jobs[j];
    resumed.options.resume = true;
    resumed.options.diagnose = false;
    tuner::TargetSpec spec = resumed.spec;
    if (!resumed.options.formats.empty()) spec.formats = resumed.options.formats;
    Scope span(rec, "resume " + resumed.tag, root.id());
    const double c0 = mono_seconds();
    create_evaluator(spec, args.noise_seed);
    const double create_s = mono_seconds() - c0;
    const JobRun rr = run_job(resumed);
    if (!same_search(rr.result.search, first[j].result.search)) {
      require(resumed.tag + ": campaign resumed from its journal differs");
    }
    report.other_s += std::max(0.0, rr.wall_s - create_s);
  }
  root.close();
  out.metrics = layer_metrics(report);
  fs::create_directories(args.out);
  const std::string path = args.out + "/" + args.workload + ".trace.json";
  if (!recorder.write_chrome(path)) throw BenchError("cannot write " + path);
  std::cerr << "trace: " << recorder.size() << " spans written to " << path << "\n";
  return out;
}

// ---------------------------------------------------------------------------
// served: an in-process evaluation server over a unix socket.

/// Timing decorator around the public EvalBackend interface of the serve
/// client: counts the items it was served and times each batch call.
class TimedBackend : public tuner::EvalBackend {
 public:
  TimedBackend(tuner::EvalBackend* inner, SpanRecorder* rec, int parent)
      : inner_(inner), rec_(rec), parent_(parent) {}

  std::vector<RemoteItem> evaluate_many(
      std::span<const tuner::Config> configs,
      std::span<const std::uint64_t> streams) override {
    Scope span(rec_, "serve.ServeClient::evaluate_many", parent_);
    auto out = inner_->evaluate_many(configs, streams);
    const double dt = span.close();
    std::lock_guard lock(mu_);
    seconds += dt;
    ++batches;
    items += configs.size();
    for (const auto& item : out) served += item.ok ? 1 : 0;
    return out;
  }
  [[nodiscard]] Counters counters() const override { return inner_->counters(); }
  void set_tracer(trace::Tracer* tracer) override { inner_->set_tracer(tracer); }

  // Totals over the backend's life; read once the campaign has returned.
  double seconds = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t items = 0;
  std::uint64_t served = 0;  // items the server resolved

 private:
  tuner::EvalBackend* inner_;
  SpanRecorder* rec_;
  int parent_;
  std::mutex mu_;
};

/// Owns the served workload's server and temporary directory; tears both
/// down on every exit path, a failed check included.
struct ServedSandbox {
  TempDir tmp;
  std::unique_ptr<serve::Server> server;

  explicit ServedSandbox(std::uint64_t seed) : tmp("served", seed) {}
  ~ServedSandbox() { stop_server(); }
  ServedSandbox(const ServedSandbox&) = delete;
  ServedSandbox& operator=(const ServedSandbox&) = delete;

  [[nodiscard]] std::string socket() const { return tmp.file("s.sock"); }
  [[nodiscard]] std::string store() const { return tmp.file("store"); }

  void start_server() {
    serve::ServerOptions o;
    o.endpoint = socket();
    o.store_path = store();
    o.store_dir = true;
    o.jobs = 2;
    server = std::make_unique<serve::Server>(
        o, [](const std::string& model) -> StatusOr<tuner::TargetSpec> {
          for (const auto& m : kTable2Models) {
            if (m == model) return target_for(m);
          }
          return Status(StatusCode::kNotFound, "unknown model '" + model + "'");
        });
    if (Status s = server->start(); !s.is_ok()) {
      server.reset();
      throw BenchError("serve: " + s.to_string());
    }
  }
  serve::ServerStats stop_server() {
    serve::ServerStats stats;
    if (server == nullptr) return stats;
    server->shutdown();
    server->wait();
    stats = server->stats();
    server.reset();
    return stats;
  }
};

struct ServedRun {
  JobRun run;
  std::uint64_t served = 0;
  double request_s = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t items = 0;
};

ServedRun run_served_job(const Job& job, const ServedSandbox& box,
                         const std::string& journal, SpanRecorder* rec,
                         int parent) {
  serve::ServeClient::Options co;
  co.endpoint = box.socket();
  co.model = job.spec.name;
  co.noise_seed = job.options.noise_seed;
  co.target_digest = serve::target_digest(job.spec);
  auto client = serve::ServeClient::connect(co);
  if (!client.is_ok()) throw BenchError("serve: " + client.status().to_string());
  TimedBackend timed(client.value().get(), rec, parent);
  Job j = job;
  j.options.backend = &timed;
  j.options.journal_path = journal;
  ServedRun out;
  out.run = run_job(j);
  out.served = timed.served;
  out.request_s = timed.seconds;
  out.batches = timed.batches;
  out.items = timed.items;
  return out;
}

Result run_served(const Args& args) {
  std::vector<Job> jobs;
  for (const auto& m : kTable2Models) {
    Job j;
    j.spec = target_for(m);
    j.tag = m + "/served";
    j.options.noise_seed = args.noise_seed;
    j.options.jobs = 2;
    j.options.stop = &g_stop;
    jobs.push_back(std::move(j));
  }
  std::map<std::string, std::unique_ptr<tuner::Evaluator>> fresh;
  for (const Job& j : jobs) fresh[j.spec.name] = create_evaluator(j.spec, args.noise_seed);

  // Set-up: a server on a fresh segmented store, a journaled cold pass that
  // fills the store, then a restart that reloads it.
  ServedSandbox box(args.seed);
  box.start_server();
  std::vector<ServedRun> cold(jobs.size());
  for (const std::size_t j : seeded_order(jobs.size(), args.seed, 0)) {
    const std::string journal = box.tmp.file(jobs[j].spec.name + ".journal");
    cold[j] = run_served_job(jobs[j], box, journal, nullptr, -1);
  }
  const serve::ServerStats cold_stats = box.stop_server();
  box.start_server();
  const double setup_s = mono_seconds() - g_process_start;

  // Timed phase: warm passes served from the reloaded store, a fixed number
  // set by --seconds.
  SpanRecorder recorder;
  SpanRecorder* rec = args.trace ? &recorder : nullptr;
  Scope root(rec, "perfbench served", -1);
  const std::size_t n_passes = args.trace ? 1 : rounds_for(args);
  std::vector<std::vector<ServedRun>> passes;
  while (passes.size() < n_passes) {
    Scope ps(rec, "warm pass", root.id());
    std::vector<ServedRun> pass(jobs.size());
    for (const std::size_t j :
         seeded_order(jobs.size(), args.seed, passes.size() + 1)) {
      Scope cs(rec, "run_campaign " + jobs[j].tag, ps.id());
      pass[j] = run_served_job(jobs[j], box, "", rec, cs.id());
    }
    passes.push_back(std::move(pass));
  }
  const serve::ServerStats warm_stats = box.server->stats();

  // Checks: warm passes identical to the cold pass and executed nowhere;
  // the cold pass journal holds exactly the variants the server computed.
  WarmPassFacts facts;
  facts.server_evals_executed = warm_stats.evals_executed;
  facts.store_hits = warm_stats.store_hits;
  std::vector<std::vector<double>> walls(jobs.size()), cpus(jobs.size());
  for (const auto& pass : passes) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      facts.identical_to_cold =
          facts.identical_to_cold &&
          same_search(pass[j].run.result.search, cold[j].run.result.search);
      facts.client_fallbacks += pass[j].run.result.summary.fallbacks;
      facts.client_served += pass[j].served;
      walls[j].push_back(pass[j].run.wall_s);
      cpus[j].push_back(pass[j].run.cpu_s);
    }
  }
  require(check_warm_pass(facts));
  std::uint64_t cold_served = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    cold_served += cold[j].served;
    const std::string journal = box.tmp.file(jobs[j].spec.name + ".journal");
    auto loaded = tuner::Journal::load(journal);
    if (!loaded.is_ok()) require(jobs[j].tag + ": journal: " + loaded.status().to_string());
    if (loaded->variants.size() != cold[j].served) {
      require(jobs[j].tag + ": journal holds " +
              std::to_string(loaded->variants.size()) + " variants, cold pass served " +
              std::to_string(cold[j].served));
    }
  }
  if (cold_stats.evals_executed != cold_served) {
    require("cold server executed " + std::to_string(cold_stats.evals_executed) +
            " evaluations for " + std::to_string(cold_served) + " served variants");
  }
  LayerReport report;
  Replayer checker(rec, &report.totals);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const tuner::CampaignResult& r = cold[j].run.result;
    Scope cs(rec, "checks " + jobs[j].tag, root.id());
    checker.recheck_final(jobs[j], r, cs.id());
    if (r.search.one_minimal) {
      require(check_one_minimal(jobs[j].tag, *fresh.at(jobs[j].spec.name),
                                r.search.accepted));
    }
  }

  Result out;
  out.attempted = jobs.size() * passes.size();
  std::vector<double> speedups;
  double variants = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    speedups.push_back(passes[0][j].run.result.summary.best_speedup);
    variants += static_cast<double>(passes[0][j].served);
  }
  if (!args.trace) {
    out.metrics = {
        {"campaign_s", "s", sum_of_medians(walls)},
        {"cpu_s", "s", sum_of_medians(cpus)},
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"variants", "count", variants},
        {"tuned_speedup", "x", geomean(speedups)},
    };
    return out;
  }

  // Traced run: the warm pass's requests, the layers the cold pass used
  // (replayed), and the persistence layers timed record by record.
  report = LayerReport{};
  Replayer tracer_replay(rec, &report.totals);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const ServedRun& w = passes[0][j];
    report.request_s += w.request_s;
    report.request_items += w.items;
    report.batches += w.batches;
    report.campaign_wall_s += w.run.wall_s;
    report.jobs_weighted_wall_s += 2.0 * w.run.wall_s;
    report.cache_hits += w.run.result.search.cache_hits;
    tracer_replay.replay_all(jobs[j], cold[j].run.result, /*local=*/false,
                             &report.totals, root.id());
  }
  report.store_hits = warm_stats.store_hits;

  // What every warm campaign still runs locally: evaluator creation with
  // its uniform-64 baseline run.
  {
    Scope span(rec, "client baselines (Evaluator::create)", root.id());
    for (const Job& j : jobs) create_evaluator(j.spec, args.noise_seed);
    report.client_baseline_s = span.close();
    // On a warm pass the busy work is exactly these baselines.
    report.replay_busy_s = report.client_baseline_s;
  }
  report.other_s = std::max(
      0.0, report.campaign_wall_s - report.client_baseline_s - report.request_s);

  std::vector<const tuner::VariantRecord*> records;
  for (const ServedRun& c : cold) {
    std::set<std::string> seen;
    for (const auto& v : c.run.result.search.records) {
      if (seen.insert(v.config.key()).second) records.push_back(&v);
    }
  }
  {
    Scope span(rec, "tuner/eval_codec round trips", root.id());
    for (const auto* v : records) {
      std::string line = "{\"k\":0";
      tuner::append_evaluation_fields(line, v->eval);
      line += "}";
      auto parsed = json::parse(line);
      if (!parsed.is_ok()) require("codec: " + parsed.status().to_string());
      auto back = tuner::evaluation_from_json(parsed.value());
      if (!back.is_ok() || evaluation_bytes(back.value()) != evaluation_bytes(v->eval)) {
        require("codec: evaluation does not round-trip");
      }
    }
    report.codec_s = span.close();
    report.codec_items = records.size();
  }
  {
    Scope span(rec, "tuner.Journal::append_variant", root.id());
    tuner::JournalHeader h;
    h.model = "perfbench";
    auto journal = tuner::Journal::open(box.tmp.file("timing.journal"), h);
    if (!journal.is_ok()) require("journal: " + journal.status().to_string());
    const double a0 = mono_seconds();
    std::uint64_t stream = 1;
    for (const auto* v : records) journal.value()->append_variant(v->config.key(), stream++, v->eval);
    report.journal_append_s = mono_seconds() - a0;
    report.journal_appends = records.size();
  }
  {
    Scope span(rec, "serve.ResultStore::insert", root.id());
    auto store = serve::ResultStore::open_dir(box.tmp.file("timing-store"));
    if (!store.is_ok()) require("store: " + store.status().to_string());
    const double a0 = mono_seconds();
    std::uint64_t stream = 1;
    for (const auto* v : records) store.value()->insert(1, v->config.key(), stream++, v->eval);
    report.store_put_s = mono_seconds() - a0;
    report.store_puts = records.size();
  }
  box.stop_server();
  {
    Scope span(rec, "serve.ResultStore::open_dir (reload)", root.id());
    auto store = serve::ResultStore::open_dir(box.store());
    report.store_reload_s = span.close();
    if (!store.is_ok()) require("store reload: " + store.status().to_string());
    if (store.value()->records() != cold_served) {
      require("store reload: " + std::to_string(store.value()->records()) +
              " records for " + std::to_string(cold_served) + " served variants");
    }
  }
  root.close();
  out.metrics = layer_metrics(report);
  fs::create_directories(args.out);
  const std::string path = args.out + "/served.trace.json";
  if (!recorder.write_chrome(path)) throw BenchError("cannot write " + path);
  std::cerr << "trace: " << recorder.size() << " spans written to " << path << "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Self-test: the error metrics on hand-computed values, and every check on a
// corrupted input.

int run_selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    failures += ok ? 0 : 1;
  };
  const auto near = [](double a, double b) {
    return std::fabs(a - b) <= 1e-15 * std::fmax(1.0, std::fabs(b));
  };
  const double inf = std::numeric_limits<double>::infinity();

  // |2 - 2.5| / 2 = 0.25; 0/0 = 0; x/0 = inf; non-finite variant = inf.
  expect(near(scalar_rel_error(2.0, 2.5), 0.25), "scalar relative error");
  expect(scalar_rel_error(0.0, 0.0) == 0.0, "scalar 0/0 is 0");
  expect(scalar_rel_error(0.0, 1.0) == inf, "scalar x/0 is inf");
  expect(scalar_rel_error(1.0, std::nan("")) == inf, "scalar NaN variant is inf");
  // Relative errors (0.1, 0, 0.25): sqrt(0.01 + 0.0625) = sqrt(0.0725).
  expect(near(l2_rel_error({1.0, 2.0, 4.0}, {1.1, 2.0, 3.0}), std::sqrt(0.0725)),
         "L2 of relative errors");
  // Groups {1,2},{4,5} with relative errors {0.1,0},{0,0.2}: sqrt(0.05).
  expect(near(l2_group_max_rel_error({1.0, 2.0, 4.0, 5.0}, {1.1, 2.0, 4.0, 4.0}, 2),
              std::sqrt(0.05)),
         "L2 of per-group max relative errors");
  expect(l2_group_max_rel_error({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}, 2) == inf,
         "series not divisible into groups is inf");
  expect(l2_rel_error({1.0, 2.0}, {1.0}) == inf, "series length mismatch is inf");

  // Recomputed error: holds on the true series, fails on a perturbed one.
  const std::vector<double> base = {3.0, 1.5, 2.25, 4.0};
  const std::vector<double> var = {3.0003, 1.5, 2.2497, 4.0008};
  const double recorded = l2_group_max_rel_error(base, var, 2);
  expect(check_recomputed_error("t", base, var, true, 2, recorded, 1e-3).empty(),
         "recomputed-error check accepts the true series");
  std::vector<double> perturbed = var;
  perturbed[0] *= 1.0 + 1e-6;  // the first group's worst entry
  expect(!check_recomputed_error("t", base, perturbed, true, 2, recorded, 1e-3).empty(),
         "recomputed-error check rejects a perturbed series");
  expect(!check_recomputed_error("t", base, var, true, 2, recorded, recorded / 2).empty(),
         "recomputed-error check rejects an error over the threshold");

  expect(check_instruction_total("t", 1234, 1234).empty(),
         "instruction-total check accepts the true total");
  expect(!check_instruction_total("t", 1234, 1235).empty(),
         "instruction-total check rejects a wrong total");
  expect(!check_cycles("t", 10.0, std::nextafter(10.0, 11.0)).empty(),
         "cycle check rejects a one-ulp difference");

  // 1-minimality, on a real funarc campaign.
  const tuner::TargetSpec funarc = models::funarc_target();
  auto campaign = tuner::run_campaign(funarc, {});
  if (!campaign.is_ok()) {
    expect(false, "funarc campaign: " + campaign.status().to_string());
  } else {
    const tuner::Config accepted = campaign->search.accepted;
    auto fresh = create_evaluator(funarc, 2024);
    expect(check_one_minimal("funarc", *fresh, accepted).empty(),
           "1-minimality check accepts the campaign's result");
    tuner::Config widened = accepted;
    for (auto& k : widened.kinds) {
      if (k == 4) {
        k = 8;
        break;
      }
    }
    auto fresh2 = create_evaluator(funarc, 2024);
    expect(!(widened == accepted) &&
               !check_one_minimal("funarc", *fresh2, widened).empty(),
           "1-minimality check rejects a config with one more 64-bit atom");
  }

  WarmPassFacts warm;
  warm.store_hits = warm.client_served = 42;
  expect(check_warm_pass(warm).empty(), "warm-pass check accepts a clean pass");
  WarmPassFacts executed = warm;
  executed.server_evals_executed = 1;
  expect(!check_warm_pass(executed).empty(),
         "warm-pass check rejects a pass that executed on the server");
  WarmPassFacts local = warm;
  local.client_fallbacks = 1;
  expect(!check_warm_pass(local).empty(),
         "warm-pass check rejects a pass that executed on the client");
  WarmPassFacts miscount = warm;
  miscount.store_hits = 41;
  expect(!check_warm_pass(miscount).empty(),
         "warm-pass check rejects store_hits != served count");
  WarmPassFacts differs = warm;
  differs.identical_to_cold = false;
  expect(!check_warm_pass(differs).empty(),
         "warm-pass check rejects a pass that differs from the cold pass");
  expect(!check_shadow_outcome("t", tuner::Outcome::kPass, tuner::Outcome::kTimeout).empty(),
         "shadow check rejects a differing outcome");

  std::cout << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

void print_result(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + fmt(v) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  try {
    const Args args = parse_args(argc, argv);
    if (args.selftest) return run_selftest();
    Result result;
    if (args.workload == "served") {
      result = run_served(args);
    } else if (args.workload == "table2" || args.workload == "klevel" ||
               args.workload == "diagnose") {
      result = run_local(args);
    } else {
      throw BenchError("unknown workload '" + args.workload +
                       "' (table2, klevel, served, diagnose)");
    }
    print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
