// Golden digests of the shadow diagnosis.
//
// Every diagnosed variant's full BlameReport (every field at %.17g, variables
// and procedures in report order) is hashed with FNV-1a and compared with the
// digests recorded below. The digests pin the shadow semantics — divergence
// per write, introduced-divergence sums in per-instruction order, first
// divergence site, fault attribution — independently of which engine runs
// them, so any engine that reproduces them is a faithful shadow engine.
//
// To regenerate after an intended semantic change, run the failing test:
// it prints the complete replacement table.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "models/models.h"
#include "support/json.h"
#include "support/strings.h"
#include "tuner/campaign.h"
#include "tuner/report.h"

namespace prose::tuner {
namespace {

using Golden = std::vector<std::pair<const char*, const char*>>;

void append_field(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g;", name, v);
  out += buf;
}

void append_field(std::string& out, const char* name, std::uint64_t v) {
  out += name;
  out += '=';
  out += std::to_string(v);
  out += ';';
}

void append_field(std::string& out, const char* name, const std::string& v) {
  out += name;
  out += '=';
  out += v;
  out += ';';
}

/// Canonical text of one BlameReport: every field, in declaration order.
std::string blame_text(const BlameReport& r) {
  std::string s;
  append_field(s, "key", r.key);
  append_field(s, "outcome", std::string(to_string(r.outcome)));
  append_field(s, "max_rel_div", r.max_rel_div);
  append_field(s, "cancellations", r.cancellations);
  append_field(s, "control_divergences", r.control_divergences);
  append_field(s, "has_first_divergence",
               static_cast<std::uint64_t>(r.has_first_divergence));
  append_field(s, "first_divergence_proc", r.first_divergence_proc);
  append_field(s, "first_divergence_instr",
               static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(r.first_divergence_instr)));
  append_field(s, "fault_proc", r.fault_proc);
  for (const VariableBlame& v : r.variables) {
    s += "|var:";
    append_field(s, "qualified", v.qualified);
    append_field(s, "demoted", static_cast<std::uint64_t>(v.demoted));
    append_field(s, "max_rel_div", v.max_rel_div);
    append_field(s, "writes", v.writes);
  }
  for (const ProcedureBlame& p : r.procedures) {
    s += "|proc:";
    append_field(s, "qualified", p.qualified);
    append_field(s, "blame", p.blame);
    append_field(s, "introduced_sum", p.introduced_sum);
    append_field(s, "introduced_max", p.introduced_max);
    append_field(s, "max_rel_div", p.max_rel_div);
    append_field(s, "cancellations", p.cancellations);
    append_field(s, "control_divergences", p.control_divergences);
    append_field(s, "cast_cycles", p.cast_cycles);
    append_field(s, "faulted", static_cast<std::uint64_t>(p.faulted));
  }
  return s;
}

std::string hex_digest(const BlameReport& r) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(blame_text(r))));
  return buf;
}

/// Compares every diagnosed variant's digest, in search order, with `golden`.
/// On any mismatch, prints the replacement table.
void expect_golden(const CampaignDiagnosis& d, const Golden& golden,
                   const char* table) {
  ASSERT_TRUE(d.enabled);
  ASSERT_GT(d.reports.size(), 0u);
  std::vector<std::string> got;
  got.reserve(d.reports.size());
  for (const BlameReport& r : d.reports) got.push_back(hex_digest(r));

  bool same = got.size() == golden.size();
  for (std::size_t i = 0; i < d.reports.size(); ++i) {
    if (i >= golden.size()) {
      ADD_FAILURE() << "extra diagnosed variant " << i << " " << d.reports[i].key;
      continue;
    }
    EXPECT_EQ(d.reports[i].key, golden[i].first) << "variant " << i;
    EXPECT_EQ(got[i], golden[i].second)
        << "variant " << i << " " << d.reports[i].key;
    if (d.reports[i].key != golden[i].first || got[i] != golden[i].second) {
      same = false;
    }
  }
  EXPECT_EQ(d.reports.size(), golden.size());
  if (!same) {
    std::ostringstream os;
    os << "const Golden " << table << " = {\n";
    for (std::size_t i = 0; i < d.reports.size(); ++i) {
      os << "    {\"" << d.reports[i].key << "\", \"" << got[i] << "\"},\n";
    }
    os << "};\n";
    std::printf("%s", os.str().c_str());
  }
}

// ---------------------------------------------------------------------------
// Recorded digests.
// ---------------------------------------------------------------------------

const Golden kFunarcGolden = {
    {"44444444", "23547f7898502dc5"},
    {"44448888", "b29bb84671697fa2"},
    {"44884444", "89e660b4f946d212"},
    {"48444444", "aa7274b1e4ae8951"},
};

const Golden kMom6Golden = {
    {"444444444444444444444444444444444", "cc1cb951d98f3c6b"},
    {"444444444444444448888888888888888", "c67476a1825308ab"},
    {"888888888888888884444444444444444", "12bf2fd3ca02c4b2"},
    {"444444444888888888888888888888888", "dde90a65cb3b0d2e"},
    {"888888888444444448888888888888888", "47efd474b5600ca2"},
    {"888888888888888884444444488888888", "abf61e040d7d09dc"},
    {"888888888888888888888888844444444", "2ca461d254ffc678"},
    {"888888888444444444444444444444444", "67b4a2a7bddf4366"},
    {"444444444888888884444444444444444", "0da6df527b8bc0ee"},
    {"444444444444444448888888844444444", "1543acf5e7f1eacb"},
    {"444444444444444444444444488888888", "95a30d229d47eecb"},
    {"444448888888888888888888888888888", "c5aef89e1057db7e"},
    {"888884444888888888888888888888888", "3964e94d5344e976"},
    {"888888888444488888888888888888888", "6fb02cad406da8fb"},
    {"888888888888844448888888888888888", "0c065f572ed2fb02"},
    {"888888888888888884444888888888888", "6e26cf455df9a903"},
    {"888888888888888888888444488888888", "b60752224b38bbd9"},
    {"888888888888888888888888844448888", "7cd7c8d0f51da3f6"},
    {"888888888888888888888888888884444", "73d89f29fc975bed"},
    {"888884444444444444444444444444444", "ec7d21cc40cb1a03"},
    {"444448888444444444444444444444444", "4d015ba694287d9b"},
    {"444444444888844444444444444444444", "479a7b57bb2166de"},
    {"444444444444488884444444444444444", "4ff08eccf48b8f9b"},
    {"444444444444444448888444444444444", "de8e8ef75d17181b"},
    {"444444444444444444444888844444444", "254ca53ddfa0619b"},
    {"444444444444444444444444488884444", "1859c67436e7da1b"},
    {"444444444444444444444444444448888", "b4d881f1a4aef39b"},
    {"444888888888888888888888888888888", "a88684b97390c795"},
    {"888448888888888888888888888888888", "e717b6af7438f2c1"},
    {"888884488888888888888888888888888", "cc64e2469d2969b3"},
    {"888888844888888888888888888888888", "11f138ab9481fa0f"},
    {"888888888448888888888888888888888", "601d4a0306dc51dd"},
    {"888888888884488888888888888888888", "c8c93318e8b887be"},
    {"888888888888844888888888888888888", "c9e635cca8c117a8"},
    {"888888888888888448888888888888888", "cbf1b95a37dfd4d3"},
    {"888888888888888884488888888888888", "5c5bd971e352cc9f"},
    {"888888888888888888844888888888888", "bb08fd76f16d5afb"},
    {"888888888888888888888448888888888", "6fc8c27d62266266"},
    {"888888888888888888888884488888888", "14bcef6a2504f218"},
    {"888888888888888888888888844888888", "ce5712175e0477ef"},
    {"888888888888888888888888888448888", "79bacae2229b5b7d"},
    {"888888888888888888888888888884488", "11a0496d9c849e15"},
    {"888888888888888888888888888888844", "d5ae813846ce9933"},
    {"888444444444444444444444444444444", "7db558b495edfdfa"},
    {"444884444444444444444444444444444", "9b7ac8f45da6ea66"},
    {"444448844444444444444444444444444", "06ac71db3d5c5d13"},
    {"444444488444444444444444444444444", "a5d5773678e56b33"},
    {"444444444884444444444444444444444", "d67f07630ab0ea5b"},
    {"444444444448844444444444444444444", "c456e18f93f2089a"},
    {"444444444444488444444444444444444", "bc68df717b383413"},
    {"444444444444444884444444444444444", "7c8feffa1af4d633"},
    {"444444444444444448844444444444444", "f230a5f3c71d2453"},
    {"444444444444444444488444444444444", "6e1ef7c7e7d2d373"},
    {"444444444444444444444884444444444", "62410fb3a9cf2b13"},
    {"444444444444444444444448844444444", "a9b83b66f8d4e133"},
    {"444444444444444444444444488444444", "93191f2ff502c353"},
    {"444444444444444444444444444884444", "4c9bf016d7494673"},
    {"444444444444444444444444444448844", "48ff4fa166fd4213"},
    {"444444444444444444444444444444488", "ffb9bbc5ecb18c33"},
    {"448888888888888888888888888888888", "f7305e97f0215d12"},
    {"884888888888888888888888888888888", "7ac16176e62f248b"},
    {"888488888888888888888888888888888", "d3981910eeacc0cd"},
    {"888848888888888888888888888888888", "96262984785c30de"},
    {"888884888888888888888888888888888", "0e8d3e581f2e8fe3"},
};

const Golden kAdcircGolden = {
    {"444444444444444444444444444444444", "5b98fec542b8c77a"},
    {"444444444444444448888888888888888", "680f384d1bb9551b"},
    {"888888888888888884444444444444444", "24b9ed98d879e1f0"},
    {"444444444888888888888888888888888", "741b22f81e6a7c44"},
    {"888888888444444448888888888888888", "e82da73a1030b16d"},
    {"888888888888888884444444488888888", "0307a1d278ba0aad"},
    {"888888888888888888888888844444444", "6e92896c74b4ef36"},
    {"888888888444444444444444444444444", "3402eddb7345a903"},
    {"444444444444444448888888844444444", "1a6729c10b1b6e85"},
    {"444444444444444444444444488888888", "741a3565cdc9e55a"},
    {"444444444888844444444444444444444", "aa86e07716ba7f15"},
    {"444444444444444884444444444444444", "671467774cc97953"},
    {"444444444444488444444444444444444", "757e682030db176b"},
    {"444444444444484884444444444444444", "53ef27fb0298d89c"},
    {"444444444444488484444444444444444", "024c3acc466721ae"},
    {"444444444444448484444444444444444", "baedf10a3904636d"},
    {"444444444444444844444444444444444", "b04f224e4c7ac19e"},
    {"444444444444448444444444444444444", "9656008ae70afcc0"},
};

const Golden kMpasFaultedGolden = {
    {"444444444444444444444444444444444444444444444444444444444444", "a021216cc0c602f9"},
    {"444444444444444444444444444444888888888888888888888888888888", "610a7bd0ca1df72c"},
    {"888888888888888888888888888888444444444444444444444444444444", "8ad95df5e8eedeac"},
    {"444444444444444888888888888888888888888888888888888888888888", "443a235690c7258c"},
    {"888888888888888444444444444444888888888888888888888888888888", "47f8a89c52cac987"},
    {"888888888888888888888888888888444444444444444888888888888888", "e5c4b8548f60e6d5"},
    {"888888888888888888888888888888888888888888888444444444444444", "0bc4bc86914f2e3f"},
    {"888888888888888444444444444444444444444444444444444444444444", "c317472a928f0621"},
    {"444444444444444888888888888888444444444444444444444444444444", "7820b79d63b3d5b4"},
    {"444444444444444444444444444444888888888888888444444444444444", "470b514f101012e8"},
    {"444444444444444444444444444444444444444444444888888888888888", "02c70135402666ce"},
    {"444444448888888888888888888888888888888888888888888888888888", "80b1019b12876d29"},
    {"888888884444444888888888888888888888888888888888888888888888", "7bfbcef75befbbfa"},
    {"888888888888888444444448888888888888888888888888888888888888", "d2d63da157fbc28f"},
    {"888888888888888888888884444444888888888888888888888888888888", "b62591d9adee9f15"},
    {"888888888888888888888888888888444444448888888888888888888888", "23f29c54ef0e7a50"},
    {"888888888888888888888888888888888888888888888444444448888888", "781ac5e8744eaee1"},
    {"888888888888888888888888888888888888888888888888888884444444", "79e5a308101c9775"},
    {"888888884444444488888888888888888888884444444888888888888888", "be334e793525cf7b"},
    {"888888888888888844444448888888888888884444444888888888888888", "115d69878774650a"},
    {"888888888888888888888884444444488888884444444888888888888888", "f94aca3dd438ce01"},
    {"888888888888888888888888888888844444444444444888888888888888", "384b6bc7d2a8c777"},
};

// ---------------------------------------------------------------------------

CampaignResult run_or_fail(const TargetSpec& spec, const CampaignOptions& options) {
  auto result = run_campaign(spec, options);
  if (!result.is_ok()) {
    ADD_FAILURE() << result.status().to_string();
    return {};
  }
  return std::move(result).value();
}

CampaignOptions diagnosed(sim::VmDispatch dispatch = sim::VmDispatch::kAuto) {
  CampaignOptions options;
  options.diagnose = true;
  options.vm_dispatch = dispatch;
  return options;
}

/// The capped, fault-injected MPAS-A campaign (as in diagnosis_test.cpp).
CampaignOptions mpas_faulted() {
  CampaignOptions options;
  options.cluster.nodes = 20;
  options.cluster.wall_budget_seconds = 3600.0;
  options.max_variants = 40;
  options.fault_spec = "compile:p=0.02;transient:p=0.05;straggler:p=0.03,slow=4x";
  return options;
}

TEST(DiagnosisGolden, Funarc) {
  const CampaignResult r = run_or_fail(models::funarc_target(), diagnosed());
  expect_golden(r.diagnosis, kFunarcGolden, "kFunarcGolden");
}

TEST(DiagnosisGolden, FunarcOnEveryDecodedEngine) {
  for (const auto dispatch : {sim::VmDispatch::kSwitch, sim::VmDispatch::kThreaded}) {
    SCOPED_TRACE(to_string(dispatch));
    const CampaignResult r = run_or_fail(models::funarc_target(), diagnosed(dispatch));
    expect_golden(r.diagnosis, kFunarcGolden, "kFunarcGolden");
  }
}

TEST(DiagnosisGolden, Mom6) {
  const CampaignResult r = run_or_fail(models::mom6_target(), diagnosed());
  expect_golden(r.diagnosis, kMom6Golden, "kMom6Golden");
}

TEST(DiagnosisGolden, Adcirc) {
  const CampaignResult r = run_or_fail(models::adcirc_target(), diagnosed());
  expect_golden(r.diagnosis, kAdcircGolden, "kAdcircGolden");
}

TEST(DiagnosisGolden, MpasFaultedCapped) {
  CampaignOptions options = mpas_faulted();
  options.diagnose = true;
  const CampaignResult r = run_or_fail(models::mpas_target(), options);
  expect_golden(r.diagnosis, kMpasFaultedGolden, "kMpasFaultedGolden");
}

}  // namespace
}  // namespace prose::tuner
