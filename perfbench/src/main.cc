// qbs_perfbench — one workload run of the QbS benchmark.
//
//   qbs_perfbench --workload <spg-uniform|serve-zipf|churn-local>
//                 --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints notes (sample counts, what each number stands for on this
// workload) as "# " lines, then the result as one JSON object on the last
// line. Exits 1 on any wrong answer, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <spg-uniform|serve-zipf|churn-local> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0.0) return Usage(argv[0]);
  config.threads = perfbench::UsableCpus();
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  perfbench::RunResult result;
  if (config.workload == "spg-uniform") {
    result = perfbench::RunSpgUniform(config);
  } else if (config.workload == "serve-zipf") {
    result = perfbench::RunServeZipf(config);
  } else if (config.workload == "churn-local") {
    result = perfbench::RunChurnLocal(config);
  } else {
    return Usage(argv[0]);
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
