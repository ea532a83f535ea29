// perfbench: the end-to-end benchmark's measuring program.
//
//   perfbench --workload <cold-solve|eco-stream|serve-mix|topo-search>
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Prints facts about the run as "# key: value" lines, then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this program, runs it and checks its output
// against BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return Usage("flags come in --key value pairs");
    }
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("flags come in --key value pairs");
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "out-dir"}) {
    if (args.count(required) == 0) {
      return Usage((std::string("missing --") + required).c_str());
    }
  }
  RunConfig config;
  config.workload = args["workload"];
  char* end = nullptr;
  config.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (end == args["seed"].c_str() || *end != '\0') return Usage("bad --seed");
  config.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(config.seconds > 0.0)) return Usage("bad --seconds");
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  config.trace = args["trace"] == "1";
  config.out_dir = args["out-dir"];

  using Runner = void (*)(const RunConfig&, Tracer*, WorkloadResult*);
  const std::map<std::string, Runner> runners = {
      {"cold-solve", RunColdSolve},
      {"eco-stream", RunEcoStream},
      {"serve-mix", RunServeMix},
      {"topo-search", RunTopoSearch},
  };
  const auto runner = runners.find(config.workload);
  if (runner == runners.end()) return Usage("unknown --workload");

  Tracer tracer(config.trace);
  WorkloadResult result;
  runner->second(config, &tracer, &result);

  if (config.trace) {
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    if (tracer.WriteChromeTrace(path)) result.Info("trace_file", path);
  }
  for (const auto& [key, value] : result.info) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::printf("# failure: %s\n", failure.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 1;
  }
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) line += ", ";
    line += JsonString(m.name) + ": {\"value\": " + Num(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
