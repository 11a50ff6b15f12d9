// The CLI against its documentation, strict both ways:
//   * Cli: the exit-code convention (src/core/exit_codes.h) and its table
//     in docs/CLI.md — every constant with its exact value, no invented
//     codes.
//   * CliDoc (ctest `cli_doc_check`): each subcommand's flag table in
//     docs/CLI.md against the one flag declaration, tools/cli_flags.h.
//   * CliFlagMatrix (ctest `cli_flag_matrix`): the built binary refuses
//     every flag a subcommand does not read, for all subcommands x flags.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/exit_codes.h"
#include "tools/cli_flags.h"

namespace originscan {
namespace {

std::string read_cli_doc() {
  const std::string path = std::string(OSN_SOURCE_DIR) + "/docs/CLI.md";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Parses rows shaped "| 0 | `kOk` | ... |" from the exit-code table.
std::map<std::string, int> parse_exit_code_table(const std::string& doc) {
  std::map<std::string, int> codes;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    int value = 0;
    char name[64] = {0};
    if (std::sscanf(line.c_str(), "| %d | `%63[A-Za-z]` |", &value, name) ==
        2) {
      codes[name] = value;
    }
  }
  return codes;
}

TEST(Cli, ExitCodeTableMatchesHeader) {
  const auto codes = parse_exit_code_table(read_cli_doc());
  ASSERT_EQ(codes.size(), 4u)
      << "docs/CLI.md exit-code table must list exactly the four "
         "convention codes";
  ASSERT_TRUE(codes.count("kOk"));
  ASSERT_TRUE(codes.count("kFailure"));
  ASSERT_TRUE(codes.count("kUsage"));
  ASSERT_TRUE(codes.count("kKilled"));
  EXPECT_EQ(codes.at("kOk"), cli::kOk);
  EXPECT_EQ(codes.at("kFailure"), cli::kFailure);
  EXPECT_EQ(codes.at("kUsage"), cli::kUsage);
  EXPECT_EQ(codes.at("kKilled"), cli::kKilled);
}

TEST(Cli, ExitCodeValuesAreTheDocumentedConvention) {
  // The values themselves are part of the public contract (scripts
  // branch on them), so pin them independently of the doc.
  EXPECT_EQ(cli::kOk, 0);
  EXPECT_EQ(cli::kFailure, 1);
  EXPECT_EQ(cli::kUsage, 2);
  EXPECT_EQ(cli::kKilled, 3);
}

// ---- cli_doc_check: docs/CLI.md against tools/cli_flags.h -------------

using FlagSets = std::map<std::string, std::set<std::string>>;

// Each subcommand's flags as the table in tools/cli_flags.h declares them.
FlagSets declared_flag_sets() {
  FlagSets sets;
  for (const cli::CommandName& command : cli::kCommands) {
    auto& flags = sets[std::string(command.name)];
    for (const cli::Flag& flag : cli::kFlags) {
      if (flag.commands & command.command) flags.insert(std::string(flag.name));
    }
  }
  return sets;
}

// Each "### `originscan X`" section's flags as docs/CLI.md lists them:
// every `--name` in the first cell of a "| `--..." table row.
FlagSets documented_flag_sets(const std::string& doc) {
  FlagSets sets;
  std::set<std::string>* section = nullptr;
  std::istringstream lines(doc);
  std::string line;
  const std::string heading = "### `originscan ";
  while (std::getline(lines, line)) {
    if (line.rfind(heading, 0) == 0) {
      const std::size_t end = line.find('`', heading.size());
      section = &sets[line.substr(heading.size(), end - heading.size())];
    } else if (line.rfind("#", 0) == 0) {
      section = nullptr;
    } else if (section != nullptr && line.rfind("| `--", 0) == 0) {
      const std::string cell = line.substr(0, line.find('|', 1));
      for (std::size_t at = cell.find("`--"); at != std::string::npos;
           at = cell.find("`--", at + 1)) {
        const std::size_t end = cell.find_first_of(" `", at + 3);
        section->insert(cell.substr(at + 3, end - at - 3));
      }
    }
  }
  return sets;
}

// Every disagreement between the two, in both directions.
std::vector<std::string> doc_mismatches(const FlagSets& declared,
                                        const FlagSets& documented) {
  std::vector<std::string> problems;
  for (const auto& [command, flags] : declared) {
    const auto doc = documented.find(command);
    if (doc == documented.end()) {
      problems.push_back(command + ": no section in docs/CLI.md");
      continue;
    }
    for (const std::string& flag : flags) {
      if (!doc->second.count(flag)) {
        problems.push_back(command + ": --" + flag + " read but undocumented");
      }
    }
    for (const std::string& flag : doc->second) {
      if (!flags.count(flag)) {
        problems.push_back(command + ": --" + flag +
                           " documented but not read");
      }
    }
  }
  for (const auto& [command, flags] : documented) {
    if (!declared.count(command)) {
      problems.push_back(command + ": documented but not a subcommand");
    }
  }
  return problems;
}

TEST(CliDoc, FlagTablesMatchTheDeclaration) {
  const auto problems = doc_mismatches(declared_flag_sets(),
                                       documented_flag_sets(read_cli_doc()));
  for (const std::string& problem : problems) ADD_FAILURE() << problem;
}

TEST(CliDoc, CatchesARowMissingFromTheDoc) {
  std::string doc = read_cli_doc();
  const std::size_t row = doc.find("| `--rounds N`");
  ASSERT_NE(row, std::string::npos);
  doc.erase(row, doc.find('\n', row) + 1 - row);
  EXPECT_EQ(doc_mismatches(declared_flag_sets(), documented_flag_sets(doc)),
            std::vector<std::string>{"chaos: --rounds read but undocumented"});
}

TEST(CliDoc, CatchesARowMissingFromTheTable) {
  FlagSets declared = declared_flag_sets();
  for (auto& [command, flags] : declared) flags.erase("probes");
  EXPECT_EQ(doc_mismatches(declared, documented_flag_sets(read_cli_doc())),
            (std::vector<std::string>{
                "client: --probes documented but not read",
                "scan: --probes documented but not read",
                "sweep: --probes documented but not read"}));
}

// ---- the flag x subcommand matrix, run against the binary --------------

struct CliRun {
  int exit_code = -1;
  std::string err;
  bool wrote_stdout = false;
};

// Runs `originscan <words>`; stdout goes to a scratch file so a run that
// got as far as printing progress is visible.
CliRun run_cli(const std::string& words) {
  const std::string out_file = ::testing::TempDir() + "cli_matrix_stdout." +
                               std::to_string(::getpid());
  const std::string command = std::string(OSN_CLI_BINARY) + " " + words +
                              " 2>&1 >" + out_file;
  CliRun run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  while (const std::size_t n = std::fread(buffer, 1, sizeof buffer, pipe)) {
    run.err.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream out(out_file, std::ios::binary | std::ios::ate);
  run.wrote_stdout = out.good() && out.tellg() > 0;
  std::remove(out_file.c_str());
  return run;
}

TEST(CliFlagMatrix, EveryUnreadFlagExitsTwoBeforeAnythingRuns) {
  for (const cli::CommandName& command : cli::kCommands) {
    for (const cli::Flag& flag : cli::kFlags) {
      const bool is_switch =
          std::holds_alternative<bool cli::Args::*>(flag.field);
      const std::string words =
          std::string(command.name) + " --" + std::string(flag.name);
      SCOPED_TRACE(words);
      if (flag.commands & command.command) {
        // A flag the subcommand reads gets as far as its value.
        if (is_switch) continue;
        const CliRun run = run_cli(words);
        EXPECT_EQ(run.exit_code, cli::kUsage);
        EXPECT_NE(run.err.find("--" + std::string(flag.name) +
                               " needs a value"),
                  std::string::npos)
            << run.err;
        EXPECT_FALSE(run.wrote_stdout);
      } else {
        const CliRun run = run_cli(words + (is_switch ? "" : " 1"));
        EXPECT_EQ(run.exit_code, cli::kUsage);
        EXPECT_EQ(run.err.rfind(std::string(command.name) +
                                    " does not read --" +
                                    std::string(flag.name) + "\n",
                                0),
                  0u)
            << run.err;
        EXPECT_FALSE(run.wrote_stdout);
      }
    }
  }
}

TEST(CliFlagMatrix, UnknownProtocolExitsTwoAtParseTime) {
  for (const char* command : {"scan", "sweep", "client"}) {
    const CliRun run = run_cli(std::string(command) + " --protocol ftp");
    EXPECT_EQ(run.exit_code, cli::kUsage) << command;
    EXPECT_EQ(run.err.rfind("unknown protocol: ftp\n", 0), 0u) << run.err;
    EXPECT_FALSE(run.wrote_stdout) << command;
  }
}

TEST(CliFlagMatrix, WorkersWithTraceOutExitsTwoBeforeTheWorldIsBuilt) {
  const CliRun run =
      run_cli("experiment --scale 12 --workers 2 --trace-out /dev/null");
  EXPECT_EQ(run.exit_code, cli::kUsage);
  EXPECT_FALSE(run.wrote_stdout) << "the run got past the refusal";
}

}  // namespace
}  // namespace originscan
