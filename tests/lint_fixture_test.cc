// Self-test for tools/eep_lint (the package), wired into tier-1 CTest.
//
// Six checks, all shelling out to the linter with the source checkout
// baked in via EEP_SOURCE_DIR:
//   1. the rule registry exposes the contracted rules, including the
//      interprocedural flow rules (raw-count-egress, unaccounted-release)
//      and the stale-suppression audit;
//   2. every fixture under tests/lint_fixtures behaves as labelled
//      (violate_<rule>*.cc yields exactly that rule, clean_*.cc yields
//      nothing) — this is the linter's own regression suite;
//   3. the call graph recovered from the fixture mini-repo matches the
//      checked-in golden rendering byte for byte (node and edge recovery
//      is what the flow pass composes summaries over);
//   4. the real tree lints clean with the flow pass on, so a PR that
//      introduces a contract violation (or an unjustified suppression)
//      fails tier-1 here, not just in the CI lint job;
//   5. the --json artifact carries the full rule set and the counts the
//      CI job uploads;
//   6. a compilation database that still names a deleted source (one
//      configured before the deletion) is read past: the run gives the
//      real tree's result.
//
// Skips (rather than fails) when python3 is not on PATH so the C++ test
// suite stays runnable on build images without Python.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef EEP_SOURCE_DIR
#define EEP_SOURCE_DIR "."
#endif

bool HavePython() {
  return std::system("python3 --version > /dev/null 2>&1") == 0;
}

std::string LintPath() {
  // The package directory: `python3 tools/eep_lint` runs its __main__.py.
  return std::string(EEP_SOURCE_DIR) + "/tools/eep_lint";
}

// Runs `python3 tools/eep_lint <args>`, returns the exit status (-1 if the
// shell itself failed) and captures combined stdout+stderr into *output.
int RunLint(const std::string& args, std::string* output) {
  const std::string cmd =
      "python3 " + LintPath() + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  std::array<char, 4096> buf;
  output->clear();
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe)) {
    *output += buf.data();
  }
  const int status = pclose(pipe);
  return status < 0 ? -1 : WEXITSTATUS(status);
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(LintFixtureTest, RegistryHasContractedRules) {
  if (!HavePython()) GTEST_SKIP() << "python3 not on PATH";
  std::string out;
  ASSERT_EQ(RunLint("--list-rules", &out), 0) << out;
  for (const char* rule :
       {"rng-source", "worker-shared-rng", "unordered-iteration",
        "release-layering", "worker-shared-mutation",
        "worker-float-accumulation", "module-layering", "unbounded-queue",
        // Interprocedural flow rules + the annotation audit.
        "raw-count-egress", "unaccounted-release", "stale-suppression"}) {
    EXPECT_NE(out.find(rule), std::string::npos)
        << "rule '" << rule << "' missing from --list-rules:\n"
        << out;
  }
}

TEST(LintFixtureTest, FixturesBehaveAsLabelled) {
  if (!HavePython()) GTEST_SKIP() << "python3 not on PATH";
  std::string out;
  const int status = RunLint(
      std::string("--fixtures ") + EEP_SOURCE_DIR + "/tests/lint_fixtures",
      &out);
  EXPECT_EQ(status, 0) << out;
  // The fixture suite must actually exercise every rule: one violate +
  // one clean file per rule is the floor (10 rules -> >= 20 expectations).
  EXPECT_NE(out.find("expectations"), std::string::npos) << out;
}

TEST(LintFixtureTest, FixtureCallGraphMatchesGolden) {
  if (!HavePython()) GTEST_SKIP() << "python3 not on PATH";
  const std::string fixtures =
      std::string(EEP_SOURCE_DIR) + "/tests/lint_fixtures";
  const std::string emitted = "lint_fixture_callgraph_test.dot";
  std::string out;
  const int status = RunLint(
      "--fixtures " + fixtures + " --callgraph-dot " + emitted, &out);
  EXPECT_EQ(status, 0) << out;
  const std::string got = ReadFileOrEmpty(emitted);
  const std::string want = ReadFileOrEmpty(fixtures + "/callgraph.golden.dot");
  ASSERT_FALSE(want.empty()) << "missing callgraph.golden.dot";
  ASSERT_FALSE(got.empty()) << "linter wrote no call graph:\n" << out;
  // Byte-for-byte: the rendering is deterministic (sorted nodes/edges), so
  // any drift means symbol or call-edge recovery changed.
  EXPECT_EQ(got, want)
      << "recovered call graph drifted from tests/lint_fixtures/"
         "callgraph.golden.dot; if the change is intentional, regenerate "
         "with: python3 tools/eep_lint --fixtures tests/lint_fixtures "
         "--callgraph-dot tests/lint_fixtures/callgraph.golden.dot";
  std::remove(emitted.c_str());
}

TEST(LintFixtureTest, RealTreeLintsCleanAndWritesJson) {
  if (!HavePython()) GTEST_SKIP() << "python3 not on PATH";
  const std::string json = "lint_fixture_findings_test.json";
  std::string out;
  const int status = RunLint(
      std::string("--root ") + EEP_SOURCE_DIR + " --json " + json, &out);
  EXPECT_EQ(status, 0)
      << "eep_lint found contract violations in the tree:\n"
      << out;
  const std::string payload = ReadFileOrEmpty(json);
  ASSERT_FALSE(payload.empty()) << "--json wrote nothing";
  // The artifact must carry the flow rules (the default run includes the
  // interprocedural pass) and the active/suppressed counts CI uploads.
  for (const char* needle :
       {"\"tool\": \"eep_lint\"", "raw-count-egress", "unaccounted-release",
        "stale-suppression", "\"counts\"", "\"active\": 0"}) {
    EXPECT_NE(payload.find(needle), std::string::npos)
        << "JSON artifact missing '" << needle << "':\n" << payload;
  }
  std::remove(json.c_str());
}

// The summary line ("eep_lint: N files, R rules, F findings, S
// suppressed") of a run's output, or "" when it has none.
std::string SummaryLine(const std::string& output) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("eep_lint: ", 0) == 0) return line;
  }
  return "";
}

TEST(LintFixtureTest, StaleCompileCommandsEntryIsSkipped) {
  if (!HavePython()) GTEST_SKIP() << "python3 not on PATH";
  namespace fs = std::filesystem;
  const fs::path empty = "lint_no_compile_commands";
  const fs::path stale = "lint_stale_compile_commands";
  fs::remove_all(empty);
  fs::remove_all(stale);
  fs::create_directories(empty);
  fs::create_directories(stale);
  const std::string source_dir = EEP_SOURCE_DIR;
  {
    std::ofstream db(stale / "compile_commands.json");
    db << "[{\"directory\": \"" << source_dir
       << "\", \"command\": \"c++ -c src/table/deleted_source.cc\", "
          "\"file\": \""
       << source_dir << "/src/table/deleted_source.cc\"},\n"
       << " {\"directory\": \"" << source_dir
       << "\", \"command\": \"c++ -c src/table/group_by.cc\", "
          "\"file\": \""
       << source_dir << "/src/table/group_by.cc\"}]\n";
  }
  ASSERT_FALSE(fs::exists(source_dir + "/src/table/deleted_source.cc"));

  std::string tree_walk;
  ASSERT_EQ(RunLint("--root " + source_dir + " -p " + empty.string(),
                    &tree_walk),
            0)
      << tree_walk;
  std::string with_stale;
  EXPECT_EQ(RunLint("--root " + source_dir + " -p " + stale.string(),
                    &with_stale),
            0)
      << with_stale;
  EXPECT_NE(SummaryLine(tree_walk), "") << tree_walk;
  EXPECT_EQ(SummaryLine(with_stale), SummaryLine(tree_walk)) << with_stale;
  fs::remove_all(empty);
  fs::remove_all(stale);
}

}  // namespace
