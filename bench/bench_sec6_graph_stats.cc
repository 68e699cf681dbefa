// Section 6's data statistics, recomputed on the synthetic extract:
//  * the number of establishments with more than 1000 employees (the
//    paper reports a Laplace(1/0.1)-noised 95% CI of [740, 815] on the
//    confidential data — itself a sensitive count!);
//  * the share of place x industry x ownership cells with count < 1000
//    (paper: over 93%) — why Laplace(1000/eps) noise swamps the data;
//  * the establishment degree distribution summary driving both.
#include <cmath>

#include "bench_common.h"
#include "graph/truncation.h"
#include "lodes/marginal.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf("=== Section 6: graph statistics on the synthetic extract ===\n");
  bench::PrintDatasetSummary(data, setup);

  auto graph = data.BuildGraph().value();
  const int64_t above_1000 = graph.CountEstablishmentsAbove(1000);
  std::printf("establishments with > 1000 employees: %lld (true count)\n",
              static_cast<long long>(above_1000));

  // The paper releases this count itself under eps = 0.1 Laplace noise and
  // reports a 95% interval; reproduce that release.
  Rng rng(setup.generator.seed ^ 0x5ec6u);
  const double noisy =
      static_cast<double>(above_1000) + rng.Laplace(1.0 / 0.1);
  const double half_width = std::log(1.0 / 0.05) / 0.1;  // 95% Laplace CI
  std::printf(
      "Laplace(eps=0.1) release of that count: %.0f, 95%% interval "
      "[%.0f, %.0f]\n\n",
      noisy, noisy - half_width, noisy + half_width);

  auto query = lodes::MarginalQuery::Compute(
                   data, lodes::MarginalSpec::EstablishmentMarginal())
                   .value();
  int64_t below_1000 = 0;
  for (const auto& cell : query.cells()) {
    if (cell.count < 1000) ++below_1000;
  }
  std::printf(
      "place x industry x ownership cells with count < 1000: %lld of %zu "
      "(%.1f%%; paper: >93%%)\n\n",
      static_cast<long long>(below_1000), query.cells().size(),
      100.0 * static_cast<double>(below_1000) /
          static_cast<double>(query.cells().size()));

  std::printf("degree-distribution summary:\n");
  TextTable table({"threshold theta", "estabs removed", "jobs removed",
                   "share of jobs removed"});
  for (int64_t theta : {2, 20, 50, 100, 200, 500, 1000}) {
    auto truncation = graph::TruncateByDegree(graph, theta).value();
    table.AddRow(
        {FormatDouble(static_cast<double>(theta)),
         FormatDouble(static_cast<double>(truncation.removed_estabs.size())),
         FormatDouble(static_cast<double>(truncation.removed_edges)),
         FormatDouble(static_cast<double>(truncation.removed_edges) /
                          static_cast<double>(graph.num_edges()),
                      3)});
  }
  table.Print(std::cout);
  return 0;
}
