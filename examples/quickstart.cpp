// Quickstart: tune a small Fortran kernel end-to-end.
//
//   1. Write (or load) the Fortran-subset source of a model.
//   2. Describe the tuning target: entry point, atom scope, hotspot,
//      correctness metric, threshold.
//   3. Run the delta-debugging search.
//   4. Inspect the 1-minimal variant: which declarations stayed 64-bit,
//      the speedup, and the source diff you would apply.
//
// Build & run:  ./examples/quickstart
#include <iostream>

#include "ftn/transform.h"
#include "ftn/unparse.h"
#include "support/cli.h"
#include "tuner/evaluator.h"
#include "tuner/report.h"
#include "tuner/search.h"

using namespace prose;

int main(int argc, char** argv) {
  auto flags = CliFlags::parse(argc, argv);
  if (Status s = flags.is_ok() ? flags->check() : flags.status(); !s.is_ok()) {
    std::cerr << "quickstart: " << s.message() << " (it takes no arguments)\n";
    return 2;
  }
  // (1) A little heat-diffusion kernel. The `stable_floor` parameter is
  // deliberately precision-critical: in binary32 the stopping test degrades.
  const char* source = R"f(
module heat
  implicit none
  integer, parameter :: n = 256
  real(kind=8) :: temp(n)
  real(kind=8) :: flux(n)
  real(kind=8) :: alpha
  real(kind=8) :: stable_floor
  real(kind=8) :: out_energy
contains
  subroutine init()
    integer :: i
    do i = 1, n
      temp(i) = 250.0d0 + 50.0d0 * sin(6.2831853d0 * dble(i) / dble(n))
      flux(i) = 0.0d0
    end do
    alpha = 0.2d0
    stable_floor = 1.0d0 + 1.0d-9
  end subroutine init

  subroutine step()
    integer :: i
    do i = 2, n - 1
      flux(i) = alpha * (temp(i + 1) - temp(i))
    end do
    do i = 2, n - 1
      temp(i) = temp(i) + (flux(i) - flux(i - 1)) / (stable_floor - 1.0d0) * 1.0d-9
    end do
  end subroutine step

  subroutine run_model()
    integer :: s
    call init()
    do s = 1, 50
      call step()
    end do
    out_energy = sum(temp)
  end subroutine run_model
end module heat
)f";

  // (2) The tuning target.
  tuner::TargetSpec spec;
  spec.name = "heat-quickstart";
  spec.source = source;
  spec.entry = "heat::run_model";
  spec.atom_scopes = {"heat"};                 // tune every real decl in `heat`
  spec.exclude_atoms = {"heat::out_energy"};   // except the output
  spec.hotspot_procs = {"heat::step"};
  spec.metric = [](const sim::Vm& vm) { return vm.get_scalar("heat::out_energy"); };
  spec.error_threshold = 1e-7;
  spec.noise_rsd = 0.0;

  auto evaluator = tuner::Evaluator::create(spec);
  if (!evaluator.is_ok()) {
    std::cerr << "target rejected: " << evaluator.status().to_string() << "\n";
    return 1;
  }
  tuner::Evaluator& ev = *evaluator.value();
  std::cout << "search space: " << ev.space().size() << " floating-point declarations\n"
            << "baseline energy: " << ev.baseline().metric << "\n\n";

  // (3) Search.
  const tuner::SearchResult result = tuner::delta_debug_search(ev);
  std::cout << "explored " << result.records.size() << " variants ("
            << result.cache_hits << " cache hits)\n"
            << "1-minimal: " << (result.one_minimal ? "yes" : "no") << "\n"
            << "best speedup: " << result.best_speedup << "x\n\n";

  // (4) Inspect the winner.
  std::cout << "declarations kept in 64-bit:\n";
  for (std::size_t i = 0; i < ev.space().size(); ++i) {
    if (result.accepted.kinds[i] == 8) {
      std::cout << "  real(kind=8) :: " << ev.space().atoms()[i].qualified << "\n";
    }
  }
  auto variant =
      ftn::make_variant(ev.pristine().program, ev.space().to_assignment(result.accepted));
  if (variant.is_ok()) {
    std::cout << "\nsource diff to apply:\n"
              << ftn::source_diff(ev.pristine().program, variant->program);
  }
  return 0;
}
