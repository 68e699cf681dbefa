// Shared setup for the figure/table bench binaries: dataset construction
// from command-line flags and figure-point rendering.
//
// Every bench accepts:
//   --paper       generate the paper's extract 1:1 (10.9M jobs, the
//                 GeneratorConfig::PaperExtract preset; --jobs/--places
//                 still override its fields)
//   --jobs=N      target job count        (default 120000, paper: 10.9M)
//   --places=N    number of Census places (default 160, paper preset: 640)
//   --trials=N    Monte-Carlo trials      (default 5, paper: 20)
//   --seed=N      generator seed          (default 42)
//   --threads=N   trial worker threads    (default 1; results identical)
//   --json=PATH   additionally write the bench's measurements as a JSON
//                 document (BenchJson below) so CI can track the perf
//                 trajectory machine-readably instead of prose-only
// --paper (or scaling --jobs to 10900000 by hand) reproduces the paper's
// extract 1:1 (slower; add --threads to compensate).
#ifndef EEP_BENCH_BENCH_COMMON_H_
#define EEP_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/text_table.h"
#include "eval/report.h"
#include "eval/workloads.h"
#include "lodes/generator.h"

namespace eep::bench {

struct BenchSetup {
  lodes::GeneratorConfig generator;
  eval::ExperimentConfig experiment;
  /// Wall time of the extract's Generate() call, set by MustGenerate.
  double build_ms = 0.0;
  /// The process's resident set (VmRSS) right after Generate(), in MiB,
  /// set by MustGenerate: the extract's footprint plus what the process
  /// held before it (NaN where /proc/self/status cannot be read).
  double rss_mib = 0.0;
};

/// Milliseconds elapsed since `start` — the timing helper every bench
/// needs.
inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// \brief A minimal ordered JSON document builder for machine-readable
/// bench output (the --json flag): objects keep insertion order, numbers
/// print as integers when they are integral, NaN and infinities (which
/// JSON cannot spell) print as null, strings are escaped. No
/// external dependency, mirrors the subset the CI speedup recorder
/// (tools/record_speedups.py) consumes.
class BenchJson {
 public:
  BenchJson() = default;

  static BenchJson Num(double value) {
    BenchJson v;
    v.kind_ = Kind::kNumber;
    v.number_ = value;
    return v;
  }
  static BenchJson Str(std::string value) {
    BenchJson v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(value);
    return v;
  }
  static BenchJson Bool(bool value) {
    BenchJson v;
    v.kind_ = Kind::kBool;
    v.number_ = value ? 1.0 : 0.0;
    return v;
  }
  static BenchJson Array() {
    BenchJson v;
    v.kind_ = Kind::kArray;
    return v;
  }

  /// Object field access, creating the field (and making this value an
  /// object) on first use.
  BenchJson& operator[](const std::string& key) {
    kind_ = Kind::kObject;
    for (auto& [k, v] : object_) {
      if (k == key) return v;
    }
    object_.emplace_back(key, BenchJson());
    return object_.back().second;
  }

  BenchJson& Append(BenchJson value) {
    kind_ = Kind::kArray;
    array_.push_back(std::move(value));
    return array_.back();
  }

  void Dump(std::ostream& out, int indent = 0) const {
    const std::string pad(static_cast<size_t>(indent), ' ');
    const std::string pad_in(static_cast<size_t>(indent) + 2, ' ');
    switch (kind_) {
      case Kind::kNull:
        out << "null";
        break;
      case Kind::kBool:
        out << (number_ != 0.0 ? "true" : "false");
        break;
      case Kind::kNumber: {
        // 2^63: every double below it in magnitude fits a long long.
        constexpr double kLongLongLimit = 9223372036854775808.0;
        if (!std::isfinite(number_)) {
          out << "null";
        } else if (std::fabs(number_) < kLongLongLimit &&
                   std::trunc(number_) == number_) {
          out << static_cast<long long>(number_);
        } else {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.6g", number_);
          out << buf;
        }
        break;
      }
      case Kind::kString:
        WriteEscaped(out, string_);
        break;
      case Kind::kObject: {
        out << "{";
        bool first = true;
        for (const auto& [k, v] : object_) {
          out << (first ? "\n" : ",\n") << pad_in;
          WriteEscaped(out, k);
          out << ": ";
          v.Dump(out, indent + 2);
          first = false;
        }
        out << "\n" << pad << "}";
        break;
      }
      case Kind::kArray: {
        out << "[";
        bool first = true;
        for (const auto& v : array_) {
          out << (first ? "\n" : ",\n") << pad_in;
          v.Dump(out, indent + 2);
          first = false;
        }
        out << "\n" << pad << "]";
        break;
      }
    }
  }

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  static void WriteEscaped(std::ostream& out, const std::string& s) {
    out << '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out << "\\\"";
          break;
        case '\\':
          out << "\\\\";
          break;
        case '\n':
          out << "\\n";
          break;
        case '\t':
          out << "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out << buf;
          } else {
            out << c;
          }
      }
    }
    out << '"';
  }

  Kind kind_ = Kind::kNull;
  double number_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, BenchJson>> object_;
  std::vector<BenchJson> array_;
};

/// Records the dataset/config fields every bench JSON shares.
inline void FillJsonHeader(BenchJson& json, const std::string& bench_name,
                           const lodes::LodesDataset& data,
                           const BenchSetup& setup);

/// Writes the document to --json=PATH when the flag is present. A path
/// that cannot be opened or written exits the process with status 1: a
/// run asked for its JSON must not pass without it.
inline void MaybeWriteJson(const Flags& flags, const BenchJson& json) {
  const std::string path = flags.GetString("json", "");
  if (path.empty()) return;
  std::ofstream out(path);
  if (out) {
    json.Dump(out);
    out << "\n";
    out.close();
  }
  if (!out) {
    std::cerr << "cannot write --json path " << path << "\n";
    std::exit(1);
  }
  std::printf("wrote bench JSON to %s\n", path.c_str());
}

inline BenchSetup SetupFromFlags(const Flags& flags) {
  BenchSetup setup;
  const bool paper = flags.GetBool("paper", false);
  if (paper) setup.generator = lodes::GeneratorConfig::PaperExtract();
  setup.generator.seed =
      static_cast<uint64_t>(flags.GetInt("seed", 42));
  setup.generator.target_jobs =
      flags.GetInt("jobs", paper ? setup.generator.target_jobs : 120000);
  setup.generator.num_places = static_cast<int32_t>(
      flags.GetInt("places", paper ? setup.generator.num_places : 160));
  setup.experiment.trials = static_cast<int>(flags.GetInt("trials", 5));
  setup.experiment.threads = static_cast<int>(flags.GetInt("threads", 1));
  setup.experiment.seed = setup.generator.seed ^ 0xBE9Cu;
  return setup;
}

/// The process's current resident set (VmRSS) in MiB, or NaN where
/// /proc/self/status cannot be read.
inline double ResidentMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in KiB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Generates the extract and records how long that took in
/// setup.build_ms and the resident set after it in setup.rss_mib; exits 1
/// if generation fails.
inline lodes::LodesDataset MustGenerate(BenchSetup& setup) {
  const auto start = std::chrono::steady_clock::now();
  auto data = lodes::SyntheticLodesGenerator(setup.generator).Generate();
  setup.build_ms = MsSince(start);
  setup.rss_mib = ResidentMib();
  if (!data.ok()) {
    std::cerr << "dataset generation failed: " << data.status().ToString()
              << "\n";
    std::exit(1);
  }
  return std::move(data).value();
}

/// The value of `result`; on an error, prints `what` with the status and
/// exits 1, so a refused experiment (for example at --trials=0) ends the
/// bench with its reason instead of aborting it.
template <typename T>
T ValueOrExit(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void PrintDatasetSummary(const lodes::LodesDataset& data,
                                const BenchSetup& setup) {
  std::printf(
      "dataset: %lld jobs, %lld establishments, %zu places, %d trials "
      "(built in %.1f ms, %.1f MiB resident)\n\n",
      static_cast<long long>(data.num_jobs()),
      static_cast<long long>(data.num_establishments()),
      data.places().size(), setup.experiment.trials, setup.build_ms,
      setup.rss_mib);
}

inline void FillJsonHeader(BenchJson& json, const std::string& bench_name,
                           const lodes::LodesDataset& data,
                           const BenchSetup& setup) {
  json["bench"] = BenchJson::Str(bench_name);
  BenchJson& dataset = json["dataset"];
  dataset["jobs"] = BenchJson::Num(static_cast<double>(data.num_jobs()));
  dataset["establishments"] =
      BenchJson::Num(static_cast<double>(data.num_establishments()));
  dataset["places"] = BenchJson::Num(static_cast<double>(data.places().size()));
  dataset["seed"] =
      BenchJson::Num(static_cast<double>(setup.generator.seed));
  dataset["build_ms"] = BenchJson::Num(setup.build_ms);
  dataset["rss_mib"] = BenchJson::Num(setup.rss_mib);
}

/// Renders a figure sweep as one table per mechanism: rows = alpha, columns
/// = epsilon, cells = overall metric ("-" for infeasible points, matching
/// the gaps in the paper's plots).
inline void PrintFigureSeries(const std::vector<eval::FigurePoint>& points,
                              const std::string& metric_name) {
  // Collect the grids present in the sweep.
  std::vector<double> epsilons, alphas;
  std::vector<eval::MechanismKind> kinds;
  for (const auto& p : points) {
    if (std::find(epsilons.begin(), epsilons.end(), p.epsilon) ==
        epsilons.end()) {
      epsilons.push_back(p.epsilon);
    }
    if (std::find(alphas.begin(), alphas.end(), p.alpha) == alphas.end()) {
      alphas.push_back(p.alpha);
    }
    if (std::find(kinds.begin(), kinds.end(), p.kind) == kinds.end()) {
      kinds.push_back(p.kind);
    }
  }
  std::sort(epsilons.begin(), epsilons.end());
  std::sort(alphas.begin(), alphas.end());

  for (eval::MechanismKind kind : kinds) {
    std::printf("%s — %s (rows: alpha, cols: epsilon)\n",
                eval::MechanismKindName(kind), metric_name.c_str());
    std::vector<std::string> headers = {"alpha"};
    for (double eps : epsilons) headers.push_back("eps=" + FormatDouble(eps));
    TextTable table(std::move(headers));
    for (double alpha : alphas) {
      std::vector<std::string> row = {FormatDouble(alpha)};
      for (double eps : epsilons) {
        const eval::FigurePoint* found = nullptr;
        for (const auto& p : points) {
          if (p.kind == kind && p.alpha == alpha && p.epsilon == eps) {
            found = &p;
          }
        }
        if (found == nullptr) {
          row.push_back("?");
        } else if (!found->feasible) {
          row.push_back("-");
        } else {
          row.push_back(FormatDouble(found->overall, 3));
        }
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::printf("\n");
  }
}

/// Renders the per-stratum panels for one (alpha) slice of a sweep, the
/// analogue of the four stacked panels in each paper figure.
inline void PrintStratifiedPanels(const std::vector<eval::FigurePoint>& points,
                                  double alpha,
                                  const std::string& metric_name) {
  std::printf("stratified %s at alpha=%s (rows: stratum, cols: epsilon)\n",
              metric_name.c_str(), FormatDouble(alpha).c_str());
  std::vector<double> epsilons;
  std::vector<eval::MechanismKind> kinds;
  for (const auto& p : points) {
    if (p.alpha != alpha) continue;
    if (std::find(epsilons.begin(), epsilons.end(), p.epsilon) ==
        epsilons.end()) {
      epsilons.push_back(p.epsilon);
    }
    if (std::find(kinds.begin(), kinds.end(), p.kind) == kinds.end()) {
      kinds.push_back(p.kind);
    }
  }
  std::sort(epsilons.begin(), epsilons.end());
  for (eval::MechanismKind kind : kinds) {
    std::printf("  %s\n", eval::MechanismKindName(kind));
    std::vector<std::string> headers = {"stratum"};
    for (double eps : epsilons) headers.push_back("eps=" + FormatDouble(eps));
    TextTable table(std::move(headers));
    for (int s = 0; s < eval::kNumStrata; ++s) {
      std::vector<std::string> row = {eval::StratumName(s)};
      for (double eps : epsilons) {
        std::string cell = "?";
        for (const auto& p : points) {
          if (p.kind == kind && p.alpha == alpha && p.epsilon == eps) {
            cell = p.feasible ? FormatDouble(p.by_stratum[s], 3) : "-";
          }
        }
        row.push_back(cell);
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
  }
  std::printf("\n");
}

/// Writes the sweep to --csv=PATH when the flag is present.
inline void MaybeWriteCsv(const Flags& flags,
                          const std::vector<eval::FigurePoint>& points) {
  const std::string path = flags.GetString("csv", "");
  if (path.empty()) return;
  if (auto st = eval::WriteFigurePointsCsv(points, path); !st.ok()) {
    std::cerr << "csv write failed: " << st.ToString() << "\n";
  } else {
    std::printf("wrote %zu points to %s\n", points.size(), path.c_str());
  }
}

}  // namespace eep::bench

#endif  // EEP_BENCH_BENCH_COMMON_H_
