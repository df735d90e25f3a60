// §V in practice: statically screening variants before paying for dynamic
// evaluation. Builds the interprocedural FP-flow graph and the vectorization
// report for candidate variants of the mini-MOM6 model and shows what the
// screeners would reject and why — then cross-checks a few against the
// dynamic truth.
#include <iostream>

#include "ftn/callgraph.h"
#include "ftn/paramflow.h"
#include "models/mom6.h"
#include "sim/compile.h"
#include "support/cli.h"
#include "tuner/evaluator.h"
#include "tuner/static_filter.h"

using namespace prose;

int main(int argc, char** argv) {
  auto flags = CliFlags::parse(argc, argv);
  if (Status s = flags.is_ok() ? flags->check() : flags.status(); !s.is_ok()) {
    std::cerr << "static_screening: " << s.message() << " (it takes no arguments)\n";
    return 2;
  }
  const tuner::TargetSpec spec = models::mom6_target();
  auto evaluator = tuner::Evaluator::create(spec);
  if (!evaluator.is_ok()) {
    std::cerr << evaluator.status().to_string() << "\n";
    return 1;
  }
  tuner::Evaluator& ev = *evaluator.value();

  // The baseline program's structural facts.
  const ftn::CallGraph cg = ftn::CallGraph::build(ev.pristine());
  const ftn::ParamFlowGraph pf = ftn::build_param_flow(ev.pristine(), cg);
  auto compiled = sim::compile(ev.pristine(), spec.machine);
  if (!compiled.is_ok()) {
    std::cerr << compiled.status().to_string() << "\n";
    return 1;
  }
  std::cout << "baseline: " << cg.sites().size() << " call sites, "
            << pf.edges.size() << " FP argument bindings, total flow "
            << pf.total_flow() << " values/run (static estimate)\n"
            << "vectorized loops: " << compiled->vec_report.vectorized_count() << "/"
            << compiled->vec_report.loop_count() << "\n\n";
  std::cout << "vectorization report (the §V 'check the compiler report' advice):\n"
            << compiled->vec_report.to_string(ev.pristine().symbols) << "\n";

  auto screener = tuner::StaticScreener::create(ev);
  if (!screener.is_ok()) {
    std::cerr << screener.status().to_string() << "\n";
    return 1;
  }

  // Screen three hand-picked variants.
  struct Candidate {
    const char* label;
    tuner::Config config;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"uniform 32-bit", ev.space().uniform(4)});

  tuner::Config dummies_only = ev.space().uniform(8);
  for (std::size_t i = 0; i < ev.space().size(); ++i) {
    const auto& q = ev.space().atoms()[i].qualified;
    if (q.find("zonal_mass_flux::") != std::string::npos) dummies_only.kinds[i] = 4;
  }
  candidates.push_back({"zonal_mass_flux dummies only", dummies_only});

  tuner::Config edges_only = ev.space().uniform(8);
  for (const char* name : {"mom_continuity_ppm::h_w", "mom_continuity_ppm::h_e"}) {
    const auto i = ev.space().index_of(name);
    if (i >= 0) edges_only.kinds[static_cast<std::size_t>(i)] = 4;
  }
  candidates.push_back({"edge work arrays only", edges_only});

  for (const auto& c : candidates) {
    const auto screen = screener->screen(ev, c.config);
    std::cout << "--- " << c.label << " ---\n"
              << "  static verdict: " << (screen.rejected ? "REJECT" : "keep")
              << (screen.reason.empty() ? "" : "  (" + screen.reason + ")") << "\n"
              << "  mixed-flow penalty: " << screen.mixed_flow_penalty
              << " values/run; vectorized loops " << screen.vectorized_loops << " vs "
              << screen.baseline_vectorized_loops << " baseline\n";
    const auto& dyn = ev.evaluate(c.config);
    std::cout << "  dynamic truth: " << tuner::to_string(dyn.outcome) << ", speedup "
              << dyn.speedup << "x\n\n";
  }
  return 0;
}
