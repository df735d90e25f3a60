// End-to-end flight-recorder tests: a traced funarc campaign must produce
// both sinks with the expected event families, and tracing must never change
// the simulated results — a traced campaign and an untraced one are
// bit-identical.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/funarc.h"
#include "support/trace.h"
#include "tuner/campaign.h"

namespace prose::tuner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

CampaignOptions small_cluster() {
  CampaignOptions options;
  options.cluster.nodes = 4;
  return options;
}

TEST(TraceCampaign, ProducesBothSinksWithExpectedEventFamilies) {
  const std::string chrome = std::string(::testing::TempDir()) + "/funarc.trace.json";
  const std::string jsonl = std::string(::testing::TempDir()) + "/funarc.trace.jsonl";
  CampaignOptions options = small_cluster();
  options.trace.chrome_path = chrome;
  options.trace.jsonl_path = jsonl;

  auto result = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_GT(result->summary.total, 0u);

  // Chrome sink: one valid trace-event document with spans, node slices,
  // counters, and named tracks.
  const std::string doc = slurp(chrome);
  ASSERT_FALSE(doc.empty());
  std::string err;
  ASSERT_TRUE(trace::validate_json(doc, &err)) << err;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);   // cluster node slices
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);   // variant spans
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);   // counters
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("node 0"), std::string::npos);
  EXPECT_NE(doc.find("cluster-sim"), std::string::npos);
  EXPECT_NE(doc.find("tuning-pipeline"), std::string::npos);

  // JSONL sink: every line is valid JSON; the event families from all
  // instrumented layers are present.
  const std::string log = slurp(jsonl);
  ASSERT_FALSE(log.empty());
  std::istringstream ss(log);
  std::string line;
  std::size_t n = 0;
  bool saw_variant = false, saw_dd = false, saw_gptl = false, saw_vm = false,
       saw_outcome = false, saw_summary = false, saw_decode = false;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    ++n;
    ASSERT_TRUE(trace::validate_json(line, &err)) << line << ": " << err;
    if (line.find("\"name\":\"variant\"") != std::string::npos) saw_variant = true;
    if (line.find("\"name\":\"dd/") != std::string::npos) saw_dd = true;
    if (line.find("\"name\":\"gptl/") != std::string::npos) saw_gptl = true;
    if (line.find("\"name\":\"vm/") != std::string::npos) saw_vm = true;
    if (line.find("\"outcome\":") != std::string::npos) saw_outcome = true;
    if (line.find("campaign/summary") != std::string::npos) saw_summary = true;
    if (line.find("\"name\":\"decode\"") != std::string::npos) saw_decode = true;
  }
  EXPECT_GT(n, 10u);
  EXPECT_TRUE(saw_variant);
  EXPECT_TRUE(saw_dd);
  EXPECT_TRUE(saw_gptl);
  EXPECT_TRUE(saw_vm);
  EXPECT_TRUE(saw_outcome);
  EXPECT_TRUE(saw_summary);
  EXPECT_TRUE(saw_decode);  // the per-variant decode stage is a span too
}

TEST(TraceCampaign, TracingIsBitIdenticalToUntraced) {
  const auto spec = models::funarc_target();

  auto plain = run_campaign(spec, small_cluster());
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();

  CampaignOptions traced_options = small_cluster();
  traced_options.trace.chrome_path =
      std::string(::testing::TempDir()) + "/bitident.trace.json";
  traced_options.trace.jsonl_path =
      std::string(::testing::TempDir()) + "/bitident.trace.jsonl";
  auto traced = run_campaign(spec, traced_options);
  ASSERT_TRUE(traced.is_ok()) << traced.status().to_string();

  // Exact comparisons on purpose: the flight recorder must not perturb a
  // single simulated cycle or scheduling decision.
  EXPECT_EQ(plain->summary.total, traced->summary.total);
  EXPECT_EQ(plain->summary.best_speedup, traced->summary.best_speedup);
  EXPECT_EQ(plain->summary.wall_hours, traced->summary.wall_hours);
  EXPECT_EQ(plain->summary.pass_pct, traced->summary.pass_pct);
  EXPECT_EQ(plain->summary.finished, traced->summary.finished);
  ASSERT_EQ(plain->search.records.size(), traced->search.records.size());
  for (std::size_t i = 0; i < plain->search.records.size(); ++i) {
    const auto& a = plain->search.records[i];
    const auto& b = traced->search.records[i];
    EXPECT_EQ(a.config.key(), b.config.key()) << "variant " << i;
    EXPECT_EQ(a.eval.outcome, b.eval.outcome) << "variant " << i;
    EXPECT_EQ(a.eval.measured_cycles, b.eval.measured_cycles) << "variant " << i;
    EXPECT_EQ(a.eval.speedup, b.eval.speedup) << "variant " << i;
    EXPECT_EQ(a.eval.node_seconds, b.eval.node_seconds) << "variant " << i;
  }
  EXPECT_EQ(plain->final_kinds, traced->final_kinds);
}

TEST(TraceCampaign, UnwritableSinkFailsLoudly) {
  CampaignOptions options = small_cluster();
  options.trace.jsonl_path = "/nonexistent-dir-zzz/x.jsonl";
  auto result = run_campaign(models::funarc_target(), options);
  EXPECT_FALSE(result.is_ok());

  CampaignOptions chrome_options = small_cluster();
  chrome_options.trace.chrome_path = "/nonexistent-dir-zzz/x.json";
  auto chrome_result = run_campaign(models::funarc_target(), chrome_options);
  EXPECT_FALSE(chrome_result.is_ok());
}

}  // namespace
}  // namespace prose::tuner
