// The benchmark's output checks. Each returns an empty string when the check
// holds and a one-line reason when it does not; the driver turns a reason
// into a non-zero exit. They take plain facts, so the self-test can feed
// them corrupted inputs (perfbench --selftest).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "errmetrics.h"
#include "tuner/eval_codec.h"
#include "tuner/search.h"

namespace perfbench {

inline std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Recomputes a final variant's error from the baseline's and the variant's
/// own outputs (a series, or the scalar metric as a single entry) and checks
/// it against the recorded error and the threshold.
inline std::string check_recomputed_error(const std::string& what,
                                          const std::vector<double>& baseline,
                                          const std::vector<double>& variant,
                                          bool series, std::size_t group,
                                          double recorded, double threshold) {
  double err;
  if (series) {
    err = l2_group_max_rel_error(baseline, variant, group);
  } else if (baseline.size() == 1 && variant.size() == 1) {
    err = scalar_rel_error(baseline[0], variant[0]);
  } else {
    return what + ": scalar metric outputs missing";
  }
  const bool same = err == recorded ||
                    std::fabs(err - recorded) <=
                        1e-12 * std::fmax(std::fabs(err), std::fabs(recorded));
  if (!same) {
    return what + ": recomputed error " + fmt(err) + " != recorded " +
           fmt(recorded);
  }
  if (!(err <= threshold)) {
    return what + ": recomputed error " + fmt(err) + " exceeds threshold " +
           fmt(threshold);
  }
  return "";
}

inline std::string check_cycles(const std::string& what, double replayed,
                                double recorded) {
  if (replayed == recorded) return "";
  return what + ": replayed cycles " + fmt(replayed) + " != recorded " +
         fmt(recorded);
}

inline std::string check_instruction_total(const std::string& what,
                                           std::uint64_t replayed,
                                           std::uint64_t recorded) {
  if (replayed == recorded) return "";
  return what + ": replayed instruction total " + std::to_string(replayed) +
         " != CampaignResult::vm_exec.instructions " +
         std::to_string(recorded);
}

/// A finished two-level search's accepted configuration must be 1-minimal
/// when its single-atom neighbours are evaluated on `fresh` (an evaluator
/// that has not seen the campaign).
inline std::string check_one_minimal(const std::string& what,
                                     prose::tuner::Evaluator& fresh,
                                     const prose::tuner::Config& accepted) {
  const auto violations = prose::tuner::check_one_minimal(fresh, accepted);
  if (violations.empty()) return "";
  return what + ": accepted configuration is not 1-minimal (" +
         std::to_string(violations.size()) + " single-atom neighbours pass, " +
         "first " + fresh.space().atoms()[violations.front()].qualified + ")";
}

inline std::string evaluation_bytes(const prose::tuner::Evaluation& e) {
  std::string s;
  prose::tuner::append_evaluation_fields(s, e);
  return s;
}

/// Bit-identity of two searches: every record's configuration and encoded
/// evaluation, and the search's decisions.
inline bool same_search(const prose::tuner::SearchResult& a,
                        const prose::tuner::SearchResult& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (!(a.records[i].config == b.records[i].config)) return false;
    if (evaluation_bytes(a.records[i].eval) != evaluation_bytes(b.records[i].eval)) {
      return false;
    }
  }
  return a.accepted == b.accepted && a.best == b.best &&
         a.best_speedup == b.best_speedup && a.cache_hits == b.cache_hits &&
         a.one_minimal == b.one_minimal;
}

/// What a warm served pass must look like: identical to the cold pass,
/// nothing executed anywhere, and every variant the client was served
/// counted as a store hit by the server.
struct WarmPassFacts {
  bool identical_to_cold = true;
  std::uint64_t server_evals_executed = 0;
  std::uint64_t client_fallbacks = 0;  // variants the client ran itself
  std::uint64_t store_hits = 0;
  std::uint64_t client_served = 0;
};

inline std::string check_warm_pass(const WarmPassFacts& f) {
  if (!f.identical_to_cold) return "warm pass differs from the cold pass";
  if (f.server_evals_executed != 0) {
    return "warm server executed " + std::to_string(f.server_evals_executed) +
           " evaluations";
  }
  if (f.client_fallbacks != 0) {
    return "warm client computed " + std::to_string(f.client_fallbacks) +
           " variants locally";
  }
  if (f.store_hits != f.client_served) {
    return "server store_hits " + std::to_string(f.store_hits) +
           " != client served count " + std::to_string(f.client_served);
  }
  return "";
}

/// A diagnosed configuration re-run without shadow execution must end the
/// way its shadow run ended (finished, timed out or faulted); the cycles are
/// compared with check_cycles where the shadow run was replayed too.
inline std::string check_shadow_outcome(const std::string& what,
                                        prose::tuner::Outcome plain,
                                        prose::tuner::Outcome shadow) {
  if (plain == shadow) return "";
  return what + ": plain run " + prose::tuner::to_string(plain) +
         " but shadow run " + prose::tuner::to_string(shadow);
}

}  // namespace perfbench
