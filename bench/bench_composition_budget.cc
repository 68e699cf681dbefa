// Composition experiment (Section 7.3 / Theorem 2.1): a release calendar
// of several marginals under one privacy budget, showing how the
// accountant prices each release under the strong vs weak adversary model
// and when the budget runs out. This is the multi-query scenario the
// paper's Section 3.2 says analysts actually face.
#include "bench_common.h"
#include "release/pipeline.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  setup.generator.target_jobs = flags.GetInt("jobs", 50000);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf("=== Composition: a release calendar under one budget ===\n");
  bench::PrintDatasetSummary(data, setup);

  struct Planned {
    const char* description;
    lodes::MarginalSpec spec;
    double epsilon;
  };
  const Planned calendar[] = {
      {"Q1 establishment marginal",
       lodes::MarginalSpec::EstablishmentMarginal(), 1.0},
      {"Q1 sex x education marginal",
       lodes::MarginalSpec::WorkplaceBySexEducation(), 0.75},
      {"Q2 establishment marginal",
       lodes::MarginalSpec::EstablishmentMarginal(), 1.0},
      {"Q2 sex x education marginal",
       lodes::MarginalSpec::WorkplaceBySexEducation(), 0.75},
      {"Q3 establishment marginal",
       lodes::MarginalSpec::EstablishmentMarginal(), 1.0},
  };

  for (auto model : {privacy::AdversaryModel::kInformed,
                     privacy::AdversaryModel::kWeak}) {
    std::printf("--- %s adversary model, budget eps = 6.0 ---\n",
                privacy::AdversaryModelName(model));
    auto accountant =
        privacy::PrivacyAccountant::Create(0.1, 6.0, 0.5, model).value();
    Rng rng(7);
    TextTable table({"release", "requested eps", "charged eps", "status",
                     "remaining"});
    for (const auto& planned : calendar) {
      release::WorkloadReleaseConfig config;
      config.workload = {{planned.spec}};
      config.mechanism = eval::MechanismKind::kSmoothLaplace;
      config.alpha = 0.1;
      config.epsilon = planned.epsilon;
      config.delta = 0.05;
      config.description = planned.description;
      const double before = accountant.spent_epsilon();
      auto released =
          release::RunReleaseWorkload(data, config, &accountant, rng);
      table.AddRow(
          {planned.description, FormatDouble(planned.epsilon),
           FormatDouble(accountant.spent_epsilon() - before),
           released.ok() ? "released" : "REFUSED",
           FormatDouble(accountant.remaining_epsilon(), 4)});
    }
    table.Print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "note: under the weak model the sex x education marginal is charged "
      "d=8 times its\nper-cell epsilon (Thm 7.5 does not hold), so the same "
      "calendar exhausts the budget sooner.\n");
  return 0;
}
