// CLI client for the ppsim_serve daemon: build a submit request from
// ppsim_run-style flags, stream the per-cell results as they arrive, and
// optionally write the end-of-job report to a file.
//
//   ppsim_client --socket /tmp/ppsim.sock --n 100000 --k 8 --trials 16
//   ppsim_client --socket /tmp/ppsim.sock --n 1000,10000 --k 2,4 --json out.json
//   ppsim_client --socket /tmp/ppsim.sock --stats
//   ppsim_client --socket /tmp/ppsim.sock --archive-stats runs/
//   ppsim_client --socket /tmp/ppsim.sock --n 50000 --jsonl   # raw lines
//
// --json writes the report with the same bytes ppsim_run --json would for
// the identical spec and seed (the CI smoke lane diffs the two files);
// --jsonl forwards the server's response lines verbatim to stdout for
// scripting. --n/--k accept comma lists and expand to an n-outer, k-inner
// grid of cells on the server.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ppsim/net/socket.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/json.hpp"
#include "ppsim/util/json_parse.hpp"

namespace {

using namespace ppsim;

/// "100,200" -> rendered JSON array "[100, 200]"; a single value stays a
/// scalar so simple requests read naturally in --jsonl transcripts.
std::string int_axis_json(const std::string& csv, const std::string& flag) {
  std::vector<long long> values;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    try {
      values.push_back(std::stoll(item));
    } catch (const std::exception&) {
      PPSIM_CHECK(false, "--" + flag + " expects integers, got '" + item + "'");
    }
  }
  PPSIM_CHECK(!values.empty(), "--" + flag + " is empty");
  if (values.size() == 1) return std::to_string(values[0]);
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

void print_cell(const JsonValue& line) {
  const JsonValue& data = line.at("data");
  std::cout << "cell " << line.at("cell_index").as_int() << " ["
            << data.at("cell").as_string() << "] trials="
            << data.at("trials_run").as_int()
            << (line.at("cached").as_bool() ? " (cached)" : " (computed)")
            << "\n";
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string socket_path = cli.get_string("socket", "");
  const bool stats = cli.get_bool("stats", false);
  const std::string archive_stats = cli.get_string("archive-stats", "");
  const std::string n_flag = cli.get_string("n", "100000");
  const std::string k_flag = cli.get_string("k", "2");
  const std::string bias = cli.get_string("bias", "auto");
  const std::string engine = cli.get_string("engine", "auto");
  const long long trials = cli.get_int("trials", 1);
  const long long seed = cli.get_int("seed", 1);
  const long long threads = cli.get_int("threads", 1);
  const double max_parallel = cli.get_double("max-parallel", 100000.0);
  const std::string name = cli.get_string("name", "ppsim_run");
  const std::string json_path = cli.get_string("json", "");
  const bool jsonl = cli.get_bool("jsonl", false);
  cli.validate_no_unknown_flags();
  PPSIM_CHECK(!socket_path.empty(), "--socket PATH is required");
  PPSIM_CHECK(!stats || archive_stats.empty(),
              "--stats and --archive-stats are separate requests");

  // Build the request line.
  std::string request;
  if (stats) {
    request = JsonObject().field("type", "stats").str();
  } else if (!archive_stats.empty()) {
    request = JsonObject()
                  .field("type", "archive_stats")
                  .field("archive", archive_stats)
                  .str();
  } else {
    JsonObject submit;
    submit.field("type", "submit")
        .field("name", name)
        .field_json("n", int_axis_json(n_flag, "n"))
        .field_json("k", int_axis_json(k_flag, "k"));
    if (bias != "auto") {
      submit.field("bias", static_cast<std::int64_t>(std::stoll(bias)));
    }
    submit.field("engine", engine)
        .field("trials", static_cast<std::int64_t>(trials))
        .field("seed", static_cast<std::int64_t>(seed))
        .field("threads", static_cast<std::int64_t>(threads))
        .field("max_parallel", max_parallel);
    request = submit.str();
  }

  net::LineChannel channel(net::connect_to(socket_path));
  PPSIM_CHECK(channel.write_line(request), "server hung up on request");

  int exit_code = 0;
  while (true) {
    const std::optional<std::string> line = channel.read_line();
    PPSIM_CHECK(line.has_value(), "connection closed mid-response");
    if (jsonl) std::cout << *line << "\n";
    const JsonValue response = JsonValue::parse(*line);
    const std::string type = response.at("type").as_string();
    if (type == "error") {
      std::cerr << "server error: " << response.at("error").as_string()
                << "\n";
      exit_code = 1;
      break;
    }
    if (type == "cell") {
      if (!jsonl) print_cell(response);
      continue;
    }
    if (type == "archive") {
      if (!jsonl) {
        const JsonValue& data = response.at("data");
        std::cout << data.at("path").as_string() << ": "
                  << data.at("engine").as_string()
                  << " n=" << data.at("n").as_int()
                  << " k=" << data.at("k").as_int()
                  << " samples=" << data.at("samples").as_int()
                  << (data.at("finished").as_bool() ? "" : " (interrupted)")
                  << "\n";
      }
      continue;
    }
    if (type == "stats") {
      if (!jsonl) std::cout << *line << "\n";
      break;
    }
    if (type == "done") {
      if (response.find("report") != nullptr) {
        if (!jsonl) {
          std::cout << "done: " << response.at("cells").as_int() << " cells, "
                    << response.at("cached_cells").as_int() << " cached, "
                    << response.at("trials_executed").as_int()
                    << " trials executed\n";
        }
        if (!json_path.empty()) {
          std::ofstream out(json_path);
          PPSIM_CHECK(out.good(), "cannot open json output file " + json_path);
          // Same framing as SweepResult::write_json: report + newline, so
          // the file diffs clean against an offline ppsim_run --json.
          out << response.at("report").as_string() << "\n";
          PPSIM_CHECK(out.good(), "failed writing " + json_path);
          if (!jsonl) std::cout << "report written to " << json_path << "\n";
        }
      } else if (!jsonl) {
        std::cout << "done\n";
      }
      break;
    }
    PPSIM_CHECK(false, "unexpected response type '" + type + "'");
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
