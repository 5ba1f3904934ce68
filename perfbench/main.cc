// pjoin_perfbench: runs one workload of the repository benchmark for a
// fixed time and prints its metrics as JSON (README.md in this directory).
//
//   pjoin_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans PATH]
//   pjoin_perfbench --self-test
//
// --trace 0 repeats the workload untraced and reports the end-to-end
// metrics; --trace 1 alternates untraced and traced repetitions and reports
// the per-layer metrics. The last stdout line is the result object; the
// line before it records the host, build and workload facts the numbers
// depend on.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "obs/trace.h"  // PJOIN_TRACING, recorded in the facts
#include "span_trace.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

bool RunSelfTests(bool verbose);

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return args->self_test || !args->workload.empty();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Unit of a per-layer metric, from its name's suffix.
std::string LayerUnit(const std::string& name) {
  auto ends = [&name](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("_us")) return "us";
  if (ends("_share") || ends("_yield")) return "ratio";
  if (ends("bytes_spilled")) return "bytes";
  return "count";
}

RepResult FailedRep(std::string error) {
  RepResult r;
  r.error = std::move(error);
  return r;
}

/// RepResult as "key value" lines for the trip from child to parent.
std::string SerializeRep(const RepResult& r) {
  std::string out;
  auto put = [&out](const std::string& key, double v) {
    out += key + " " + Num(v) + "\n";
  };
  put("setup_s", r.setup_s);
  put("wall_s", r.wall_s);
  put("tuples_per_s", r.tuples_per_s);
  put("peak_rss_mb", r.peak_rss_mb);
  put("group_latency_p50_us", r.group_latency_p50_us);
  put("group_latency_p99_us", r.group_latency_p99_us);
  put("result_latency_p99_us", r.result_latency_p99_us);
  put("group_samples", static_cast<double>(r.group_samples));
  put("result_samples", static_cast<double>(r.result_samples));
  for (const auto& [name, value] : r.layers) put("layer:" + name, value);
  std::string error = r.error;
  for (char& c : error) {
    if (c == '\n') c = ' ';
  }
  return out + "error " + error + "\n";
}

RepResult ParseRep(const std::string& text) {
  RepResult r;
  std::istringstream in(text);
  std::string key;
  bool complete = false;
  while (in >> key) {
    if (key == "error") {
      std::getline(in, r.error);
      if (!r.error.empty() && r.error[0] == ' ') r.error.erase(0, 1);
      complete = true;
      break;
    }
    double v = 0.0;
    in >> v;
    if (key.rfind("layer:", 0) == 0) {
      r.layers[key.substr(6)] = v;
    } else if (key == "setup_s") {
      r.setup_s = v;
    } else if (key == "wall_s") {
      r.wall_s = v;
    } else if (key == "tuples_per_s") {
      r.tuples_per_s = v;
    } else if (key == "peak_rss_mb") {
      r.peak_rss_mb = v;
    } else if (key == "group_latency_p50_us") {
      r.group_latency_p50_us = v;
    } else if (key == "group_latency_p99_us") {
      r.group_latency_p99_us = v;
    } else if (key == "result_latency_p99_us") {
      r.result_latency_p99_us = v;
    } else if (key == "group_samples") {
      r.group_samples = static_cast<int64_t>(v);
    } else if (key == "result_samples") {
      r.result_samples = static_cast<int64_t>(v);
    }
  }
  if (!complete) r.error = "repetition process sent an incomplete result";
  return r;
}

std::string StreamParams(const pjoin::StreamSpec& s) {
  return "{\"num_tuples\": " + Num(static_cast<double>(s.num_tuples)) +
         ", \"punct_every_tuples\": " + Num(s.punct_mean_interarrival_tuples) +
         ", \"zipf_s\": " + Num(s.zipf_s) + "}";
}

/// Runs one repetition in a forked child and returns what it measured.
/// Every repetition thus starts from the same process state: none inherits
/// the heap, caches or leaks of the one before, and peak RSS is that of a
/// process that ran the workload once. A traced child also writes its span
/// records to `spans_path` (when not empty) before it exits.
RepResult RunIsolated(const WorkloadSpec& spec, const Inputs& inputs,
                      bool traced, uint32_t run_id,
                      const std::string& spans_path) {
  int fds[2];
  if (pipe(fds) != 0) return FailedRep("pipe failed");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return FailedRep("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    const RepResult r = RunRepetition(spec, inputs, traced, run_id);
    if (!spans_path.empty() && !TraceSession::WriteRecords(spans_path)) {
      std::fprintf(stderr, "could not write spans to %s\n", spans_path.c_str());
    }
    const std::string text = SerializeRep(r);
    size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return FailedRep("repetition process died (wait status " +
                     std::to_string(wstatus) + ")");
  }
  return ParseRep(text);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (!RunSelfTests(/*verbose=*/false)) {
    std::fprintf(stderr, "benchmark self-tests failed; run --self-test\n");
    return 1;
  }

  // Input generation is the benchmark's cost, not the program's: it runs
  // before any timed window and is reported as gen.input_s.
  const Inputs inputs = MakeInputs(*spec, args.seed);

  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;
  const int64_t start = NowNs();
  const auto budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (uint32_t rep = 0;; ++rep) {
    const bool traced_rep = args.trace && rep % 2 == 1;
    RepResult r = RunIsolated(*spec, inputs, traced_rep, rep,
                              traced_rep ? args.spans_path : "");
    ++attempted;
    if (!r.error.empty()) {
      ++failed;
      if (first_error.empty()) first_error = r.error;
    } else {
      (traced_rep ? traced : plain).push_back(std::move(r));
    }
    const bool have_all = !plain.empty() && (!args.trace || !traced.empty());
    if (have_all && NowNs() - start >= budget_ns) break;
    if (failed > 0 && NowNs() - start >= budget_ns) break;
  }

  auto values_of = [](const std::vector<RepResult>& reps,
                      double RepResult::*field) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(r.*field);
    return v;
  };
  auto median_of = [&](const std::vector<RepResult>& reps,
                       double RepResult::*field) {
    return Median(values_of(reps, field));
  };
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", median_of(plain, &RepResult::setup_s)},
        {"tuples_per_s", "tuples/s", median_of(plain, &RepResult::tuples_per_s)},
        {"peak_rss_mb", "MiB", median_of(plain, &RepResult::peak_rss_mb)},
        {"group_latency_p50_us", "us",
         median_of(plain, &RepResult::group_latency_p50_us)},
        {"group_latency_p99_us", "us",
         median_of(plain, &RepResult::group_latency_p99_us)},
        {"result_latency_p99_us", "us",
         median_of(plain, &RepResult::result_latency_p99_us)},
    };
  } else {
    std::map<std::string, std::vector<double>> layer_values;
    for (const RepResult& r : traced) {
      for (const auto& [name, value] : r.layers) {
        layer_values[name].push_back(value);
      }
    }
    const double plain_wall = median_of(plain, &RepResult::wall_s);
    const double traced_wall = median_of(traced, &RepResult::wall_s);
    layer_values["gen.input_s"] = {inputs.gen_s};
    layer_values["trace.overhead_share"] = {
        plain_wall > 0 ? traced_wall / plain_wall - 1.0 : 0.0};
    for (const auto& [name, values] : layer_values) {
      metrics.push_back({name, LayerUnit(name), Median(values)});
    }
  }

  const bool correct = failed == 0 && !plain.empty();
  std::string facts = "{\"facts\": {";
  facts += "\"workload\": " + Quote(spec->name);
  facts += ", \"why\": " + Quote(spec->why);
  facts += ", \"seed\": " + Num(static_cast<double>(args.seed));
  facts += ", \"num_cpus\": " +
           Num(static_cast<double>(std::thread::hardware_concurrency()));
  facts += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  facts += ", \"pjoin_tracing\": " + Num(PJOIN_TRACING);
  facts += ", \"trace\": " + Num(args.trace ? 1 : 0);
  facts += ", \"seconds\": " + Num(args.seconds);
  facts += ", \"shards\": " + Num(spec->shards);
  facts += ", \"open_keys\": " + Num(static_cast<double>(spec->domain.window_size));
  facts += ", \"memory_cap_tuples\": " +
           Num(static_cast<double>(spec->memory_cap_tuples));
  facts += ", \"stream_a\": " + StreamParams(spec->stream_a);
  facts += ", \"stream_b\": " + StreamParams(spec->stream_b);
  facts += ", \"input_tuples\": " + Num(static_cast<double>(inputs.tuples));
  facts += ", \"expected_results\": " +
           Num(static_cast<double>(inputs.expected.results));
  facts += ", \"expected_groups\": " +
           Num(static_cast<double>(inputs.expected.group_counts.size()));
  facts += ", \"gen_input_s\": " + Num(inputs.gen_s);
  facts += ", \"untraced_reps\": " + Num(static_cast<double>(plain.size()));
  facts += ", \"traced_reps\": " + Num(static_cast<double>(traced.size()));
  facts += ", \"setup_builds_per_rep\": " + Num(kSetupBuilds);
  int64_t group_samples = 0;
  int64_t result_samples = 0;
  for (const RepResult& r : plain) {
    group_samples = group_samples == 0 ? r.group_samples
                                       : std::min(group_samples, r.group_samples);
    result_samples = result_samples == 0
                         ? r.result_samples
                         : std::min(result_samples, r.result_samples);
  }
  // Latency percentiles are per repetition (median across repetitions);
  // these are the smallest sample counts behind them.
  facts += ", \"group_latency_samples_min\": " +
           Num(static_cast<double>(group_samples));
  facts += ", \"group_latency_max_percentile\": " +
           Num(HighestSupportedPercentile(static_cast<size_t>(group_samples)));
  facts += ", \"result_latency_samples_min\": " +
           Num(static_cast<double>(result_samples));
  facts += ", \"result_latency_max_percentile\": " +
           Num(HighestSupportedPercentile(static_cast<size_t>(result_samples)));
  // Per-repetition values behind the medians.
  for (const auto& [name, field] :
       {std::pair{"setup_s", &RepResult::setup_s},
        std::pair{"tuples_per_s", &RepResult::tuples_per_s},
        std::pair{"peak_rss_mb", &RepResult::peak_rss_mb},
        std::pair{"group_latency_p50_us", &RepResult::group_latency_p50_us}}) {
    std::string list;
    for (double v : values_of(plain, field)) {
      list += (list.empty() ? "" : ", ") + Num(v);
    }
    facts += ", " + Quote(std::string(name) + "_per_rep") + ": [" + list + "]";
  }
  facts += ", \"first_error\": " + Quote(first_error);
  facts += "}}";
  std::printf("%s\n", facts.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pjoin_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] | --self-test\n");
    return 2;
  }
  if (args.self_test) return perfbench::RunSelfTests(/*verbose=*/true) ? 0 : 1;
  return perfbench::Run(args);
}
