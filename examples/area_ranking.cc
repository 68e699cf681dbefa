// Area-comparison scenario from Section 3.2: the OnTheMap web tool ranks
// areas (e.g. cities within a state) by job count. This example ranks
// places by released employment under the legacy SDL and under Smooth
// Laplace, prints the top-10 side by side, and reports Spearman rank
// correlations against the confidential truth across epsilon.
//
// Build & run:  ./build/examples/area_ranking [--jobs=N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>

#include "common/flags.h"
#include "common/stats.h"
#include "common/text_table.h"
#include "eval/experiment.h"
#include "eval/workloads.h"
#include "lodes/generator.h"

namespace {

// Releases `cells` in one batch, or prints why it was refused and exits 1.
std::vector<double> ReleaseOrExit(
    const eep::mechanisms::CountMechanism& mech,
    const std::vector<eep::mechanisms::CellQuery>& cells, eep::Rng& rng) {
  std::vector<double> released;
  const eep::Status st = mech.ReleaseBatch(cells, rng, &released);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", mech.name().c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }
  return released;
}

std::vector<size_t> RankDescending(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&values](size_t a, size_t b) {
    return values[a] > values[b];
  });
  return order;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);

  lodes::GeneratorConfig generator;
  generator.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  generator.target_jobs = flags.GetInt("jobs", 80000);
  generator.num_places = 60;
  auto data =
      lodes::SyntheticLodesGenerator(generator).Generate().value();

  lodes::MarginalSpec by_place{{lodes::kColPlace}, {}};
  auto query = lodes::MarginalQuery::Compute(data, by_place).value();
  const auto truth = query.TrueCounts();

  // One SDL release and one Smooth Laplace release of the same counts.
  eval::ExperimentConfig experiment;
  experiment.trials = 20;
  experiment.seed = 99;
  eval::ExperimentRunner runner(&data, experiment);
  auto sdl = runner.SdlReleaseOnce(query, 1234).value();

  std::vector<mechanisms::CellQuery> cells;
  for (const auto& cell : query.cells()) {
    cells.push_back({cell.count, cell.x_v, nullptr});
  }
  auto mech = eval::MakeMechanism(eval::MechanismKind::kSmoothLaplace, 0.1,
                                  2.0, 0.05)
                  .value();
  Rng rng(4321);
  const std::vector<double> privately_released =
      ReleaseOrExit(*mech, cells, rng);

  std::printf("top-10 places by released employment (eps=2, alpha=0.1):\n");
  TextTable table({"rank", "true", "SDL release", "Smooth Laplace"});
  const auto true_rank = RankDescending(truth);
  const auto sdl_rank = RankDescending(sdl);
  const auto dp_rank = RankDescending(privately_released);
  for (int i = 0; i < 10; ++i) {
    // eep-lint: declassify -- the "true" column deliberately shows the
    // confidential top-10 ordering next to the released orderings so the
    // demo can visualize rank distortion; synthetic data, demo-only
    table.AddRow({FormatDouble(i + 1),
                  data.places()[query.cells()[true_rank[i]].place_code].name,
                  data.places()[query.cells()[sdl_rank[i]].place_code].name,
                  data.places()[query.cells()[dp_rank[i]].place_code].name});
  }
  table.Print(std::cout);

  std::printf(
      "\nSpearman correlation of released ranking vs confidential "
      "ranking:\n");
  TextTable corr_table({"mechanism", "eps=0.5", "eps=1", "eps=2", "eps=4"});
  for (eval::MechanismKind kind :
       {eval::MechanismKind::kLogLaplace,
        eval::MechanismKind::kSmoothLaplace,
        eval::MechanismKind::kSmoothGamma}) {
    std::vector<std::string> row = {eval::MechanismKindName(kind)};
    for (double eps : {0.5, 1.0, 2.0, 4.0}) {
      auto m = eval::MakeMechanism(kind, 0.1, eps, 0.05);
      if (!m.ok()) {
        row.push_back("-");
        continue;
      }
      // Average Spearman over repeated private releases vs the truth.
      RunningStats corr;
      Rng trial_rng(kind == eval::MechanismKind::kLogLaplace ? 1u : 2u);
      for (int t = 0; t < 20; ++t) {
        const std::vector<double> release =
            ReleaseOrExit(*m.value(), cells, trial_rng);
        auto rho = SpearmanCorrelation(release, truth);
        if (rho.ok()) corr.Add(rho.value());
      }
      row.push_back(FormatDouble(corr.mean(), 3));
    }
    corr_table.AddRow(std::move(row));
  }
  corr_table.Print(std::cout);
  // eep-lint: declassify -- a single rank-correlation coefficient against
  // the truth is the demo's aggregate accuracy statistic, not a count
  std::printf(
      "\nSDL release vs truth Spearman: %.3f\n",
      SpearmanCorrelation(sdl, truth).value_or(0.0));
  return 0;
}
