// Campaign-level numerical flight recorder tests.
//
// Two families:
//   * Root-cause reproduction — the automated blame ranking must recover the
//     findings §V of the paper derives by hand: funarc's s1 accumulator,
//     MOM6's zonal flux-adjustment convergence loop (plus the continuity
//     overflow faults), ITPACKV/ADCIRC's adaptive-parameter estimate inside
//     jcg.
//   * Shadow neutrality — a diagnosed campaign is bit-identical to the
//     undiagnosed one (outcomes, cycles, frontier, final kinds), and its
//     journal extends the undiagnosed journal byte-for-byte, for serial and
//     parallel evaluation alike, with and without injected faults.
//   * Exports — the diagnosis report and its JSON export carry the blame
//     rankings in the documented shape.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "models/models.h"
#include "support/json.h"
#include "tuner/campaign.h"
#include "tuner/report.h"

namespace prose::tuner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool top_contains(const std::vector<AtomCriticality>& atoms,
                  const std::string& needle, std::size_t top_n) {
  for (std::size_t i = 0; i < atoms.size() && i < top_n; ++i) {
    if (atoms[i].qualified.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool top_contains(const std::vector<ProcCriticality>& procs,
                  const std::string& needle, std::size_t top_n) {
  for (std::size_t i = 0; i < procs.size() && i < top_n; ++i) {
    if (procs[i].qualified.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string ranking_dump(const CampaignDiagnosis& d) {
  std::ostringstream os;
  os << "atoms:";
  for (std::size_t i = 0; i < d.atoms.size() && i < 5; ++i) {
    os << ' ' << d.atoms[i].qualified;
  }
  os << "  procs:";
  for (std::size_t i = 0; i < d.procedures.size() && i < 5; ++i) {
    os << ' ' << d.procedures[i].qualified;
  }
  return os.str();
}

TEST(Diagnosis, FunarcBlamesTheAccumulator) {
  CampaignOptions options;
  options.diagnose = true;
  auto result = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const CampaignDiagnosis& d = result->diagnosis;
  ASSERT_TRUE(d.enabled);
  EXPECT_GT(d.rejected, 0u);
  EXPECT_GT(d.diagnosed, 0u);
  EXPECT_EQ(d.reports.size(), d.diagnosed);
  ASSERT_FALSE(d.atoms.empty());
  // funarc's whole story is the s1 accumulator: demoting it breaks the
  // error threshold, so it must rank first, kept 64-bit, with direct
  // single-flip (pivotal) evidence.
  EXPECT_NE(d.atoms[0].qualified.find("s1"), std::string::npos)
      << ranking_dump(d);
  EXPECT_TRUE(d.atoms[0].final64);
  EXPECT_GT(d.atoms[0].pivotal, 0u);
  EXPECT_GT(d.atoms[0].fail_association, 0.0);
  for (const auto& a : d.atoms) {
    EXPECT_GE(a.score, 0.0);
    EXPECT_LE(a.score, 1.0 + 1e-12);
    EXPECT_GT(a.demoted_total, 0u);
  }
}

TEST(Diagnosis, Mom6BlamesFluxAdjustmentAndContinuityFaults) {
  CampaignOptions options;
  options.diagnose = true;
  auto result = run_campaign(models::mom6_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const CampaignDiagnosis& d = result->diagnosis;
  ASSERT_TRUE(d.enabled);
  ASSERT_FALSE(d.atoms.empty());
  ASSERT_FALSE(d.procedures.empty());
  // §V: MOM6's sea-surface-height mismatch traces to the flux-adjustment
  // convergence loop — the automated ranking must put it in the top 3 of
  // both the per-procedure blame and the per-variable criticality.
  EXPECT_TRUE(top_contains(d.procedures, "flux_adjust", 3)) << ranking_dump(d);
  EXPECT_TRUE(top_contains(d.atoms, "flux_adjust", 3)) << ranking_dump(d);
  // The density/continuity overflow shows up as named fault sites.
  bool continuity_faulted = false;
  for (const auto& p : d.procedures) {
    if (p.qualified.find("continuity_setup") != std::string::npos &&
        p.faults > 0) {
      continuity_faulted = true;
    }
  }
  EXPECT_TRUE(continuity_faulted) << ranking_dump(d);
}

TEST(Diagnosis, AdcircBlamesJcgAdaptiveParameter) {
  CampaignOptions options;
  options.diagnose = true;
  auto result = run_campaign(models::adcirc_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const CampaignDiagnosis& d = result->diagnosis;
  ASSERT_TRUE(d.enabled);
  ASSERT_FALSE(d.atoms.empty());
  ASSERT_FALSE(d.procedures.empty());
  // §V: ITPACKV's jcg cannot run in binary32 because of the adaptive
  // acceleration-parameter estimate. The spectral-radius estimate diverges
  // by only ~1e-9 at its own write — pure divergence ranking would bury it
  // under the variables it contaminates downstream; the pivotal single-flip
  // evidence must lift it into the top 3.
  EXPECT_TRUE(top_contains(d.atoms, "spectral_est", 3)) << ranking_dump(d);
  EXPECT_TRUE(top_contains(d.procedures, "jcg", 1)) << ranking_dump(d);
  for (const auto& a : d.atoms) {
    if (a.qualified.find("spectral_est") != std::string::npos) {
      EXPECT_GT(a.pivotal, 0u);
    }
  }
}

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.summary.total, b.summary.total);
  EXPECT_EQ(a.summary.pass_pct, b.summary.pass_pct);
  EXPECT_EQ(a.summary.fail_pct, b.summary.fail_pct);
  EXPECT_EQ(a.summary.timeout_pct, b.summary.timeout_pct);
  EXPECT_EQ(a.summary.error_pct, b.summary.error_pct);
  EXPECT_EQ(a.summary.best_speedup, b.summary.best_speedup);
  EXPECT_EQ(a.summary.wall_hours, b.summary.wall_hours);
  EXPECT_EQ(a.summary.finished, b.summary.finished);
  ASSERT_EQ(a.search.records.size(), b.search.records.size());
  for (std::size_t i = 0; i < a.search.records.size(); ++i) {
    const auto& ra = a.search.records[i];
    const auto& rb = b.search.records[i];
    EXPECT_EQ(ra.config.key(), rb.config.key()) << "variant " << i;
    EXPECT_EQ(ra.eval.outcome, rb.eval.outcome) << "variant " << i;
    EXPECT_EQ(ra.eval.error, rb.eval.error) << "variant " << i;
    EXPECT_EQ(ra.eval.speedup, rb.eval.speedup) << "variant " << i;
    EXPECT_EQ(ra.eval.measured_cycles, rb.eval.measured_cycles) << "variant " << i;
    EXPECT_EQ(ra.eval.node_seconds, rb.eval.node_seconds) << "variant " << i;
  }
  EXPECT_EQ(a.search.accepted.key(), b.search.accepted.key());
  EXPECT_EQ(a.search.best_speedup, b.search.best_speedup);
  EXPECT_EQ(a.search.one_minimal, b.search.one_minimal);
  EXPECT_EQ(a.final_kinds, b.final_kinds);
  ASSERT_EQ(a.figure6.size(), b.figure6.size());
  for (std::size_t i = 0; i < a.figure6.size(); ++i) {
    EXPECT_EQ(a.figure6[i].proc, b.figure6[i].proc);
    EXPECT_EQ(a.figure6[i].scope_key, b.figure6[i].scope_key);
    EXPECT_EQ(a.figure6[i].speedup, b.figure6[i].speedup);
  }
}

/// The capped, fault-injected MPAS-A campaign (compile faults, transient
/// faults with retries, stragglers) the diagnosis checks run on.
CampaignOptions mpas_faulted() {
  CampaignOptions options;
  options.cluster.nodes = 20;
  options.cluster.wall_budget_seconds = 3600.0;
  options.max_variants = 40;
  options.fault_spec = "compile:p=0.02;transient:p=0.05;straggler:p=0.03,slow=4x";
  return options;
}

void check_neutrality(const TargetSpec& spec, CampaignOptions base,
                      std::size_t jobs, const std::string& tag) {
  SCOPED_TRACE(spec.name + " jobs=" + std::to_string(jobs));
  base.jobs = jobs;

  CampaignOptions plain = base;
  plain.journal_path =
      std::string(::testing::TempDir()) + "/" + tag + "_plain.journal";
  std::remove(plain.journal_path.c_str());
  auto undiagnosed = run_campaign(spec, plain);
  ASSERT_TRUE(undiagnosed.is_ok()) << undiagnosed.status().to_string();
  EXPECT_FALSE(undiagnosed->diagnosis.enabled);

  CampaignOptions diag = base;
  diag.diagnose = true;
  diag.journal_path =
      std::string(::testing::TempDir()) + "/" + tag + "_diag.journal";
  std::remove(diag.journal_path.c_str());
  auto diagnosed = run_campaign(spec, diag);
  ASSERT_TRUE(diagnosed.is_ok()) << diagnosed.status().to_string();
  EXPECT_TRUE(diagnosed->diagnosis.enabled);
  EXPECT_GT(diagnosed->diagnosis.diagnosed, 0u);

  expect_bit_identical(*undiagnosed, *diagnosed);

  // The diagnosed journal must extend the undiagnosed one byte-for-byte:
  // "diag" records are appended only after every campaign record, so the
  // undiagnosed journal is an exact prefix and every extra line is a diag
  // record.
  const std::string plain_bytes = slurp(plain.journal_path);
  const std::string diag_bytes = slurp(diag.journal_path);
  ASSERT_FALSE(plain_bytes.empty());
  ASSERT_GT(diag_bytes.size(), plain_bytes.size());
  EXPECT_EQ(diag_bytes.compare(0, plain_bytes.size(), plain_bytes), 0);
  std::istringstream extra(diag_bytes.substr(plain_bytes.size()));
  std::string line;
  std::size_t diag_lines = 0;
  while (std::getline(extra, line)) {
    if (line.empty()) continue;
    ++diag_lines;
    EXPECT_EQ(line.rfind("{\"type\":\"diag\"", 0), 0u) << line;
  }
  EXPECT_EQ(diag_lines, diagnosed->diagnosis.diagnosed);
}

TEST(Diagnosis, ShadowModeIsNeutralOnFunarc) {
  const auto spec = models::funarc_target();
  check_neutrality(spec, CampaignOptions{}, 1, "funarc_j1");
  check_neutrality(spec, CampaignOptions{}, 4, "funarc_j4");
}

TEST(Diagnosis, ShadowModeIsNeutralOnFaultedMpas) {
  check_neutrality(models::mpas_target(), mpas_faulted(), 1, "mpas_faulted_j1");
}

/// Member `key` of `v`, failing the test when absent.
const json::Value& member(const json::Value& v, const char* key) {
  static const json::Value missing;
  const json::Value* m = v.find(key);
  EXPECT_NE(m, nullptr) << "missing \"" << key << "\"";
  return m != nullptr ? *m : missing;
}

TEST(Diagnosis, ReportAndJsonExportHaveTheDocumentedShape) {
  CampaignOptions options = mpas_faulted();
  options.diagnose = true;
  auto result = run_campaign(models::mpas_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const std::string report = diagnosis_report(*result);
  EXPECT_NE(report.find("variable criticality"), std::string::npos) << report;
  EXPECT_NE(report.find("procedure blame"), std::string::npos) << report;

  auto doc = json::parse(diagnosis_json("MPAS-A", result->diagnosis));
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(member(*doc, "model").str_or(""), "MPAS-A");
  EXPECT_TRUE(member(*doc, "rejected").is_number());
  const double diagnosed = member(*doc, "diagnosed").num_or(0.0);
  EXPECT_GT(diagnosed, 0.0);
  const json::Value& atoms = member(*doc, "atoms");
  const json::Value& procs = member(*doc, "procedures");
  const json::Value& variants = member(*doc, "variants");
  ASSERT_TRUE(atoms.is_array());
  ASSERT_TRUE(procs.is_array());
  ASSERT_TRUE(variants.is_array());
  EXPECT_FALSE(atoms.items().empty());
  EXPECT_FALSE(procs.items().empty());
  EXPECT_EQ(static_cast<double>(variants.items().size()), diagnosed);
  for (const json::Value& a : atoms.items()) {
    for (const char* key : {"qualified", "score", "fail_association", "max_rel_div",
                            "demoted_rejected", "demoted_total", "pivotal",
                            "final64"}) {
      (void)member(a, key);
    }
    const double score = member(a, "score").num_or(-1.0);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
  for (const json::Value& p : procs.items()) {
    for (const char* key : {"qualified", "blame_share", "cancellations",
                            "control_divergences", "faults", "cast_cycles"}) {
      (void)member(p, key);
    }
  }
  for (const json::Value& v : variants.items()) {
    for (const char* key : {"key", "outcome", "max_rel_div", "variables",
                            "procedures"}) {
      (void)member(v, key);
    }
  }
}

TEST(Diagnosis, ShadowModeIsNeutralOnMpas) {
  const auto spec = models::mpas_target();
  CampaignOptions base;
  base.cluster.wall_budget_seconds = 3600.0;
  base.max_variants = 40;
  check_neutrality(spec, base, 1, "mpas_j1");
  check_neutrality(spec, base, 4, "mpas_j4");
}

}  // namespace
}  // namespace prose::tuner
