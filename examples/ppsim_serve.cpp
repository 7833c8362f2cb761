// Sweep service daemon: a resident ppsim that answers sweep jobs over a
// local unix socket, backed by the content-addressed cell cache — repeated
// or overlapping sweeps pay for each distinct cell once per cache lifetime.
//
//   ppsim_serve --socket /tmp/ppsim.sock --cache-dir ~/.cache/ppsim
//   ppsim_serve --socket /tmp/ppsim.sock --accept 4          # CI: bounded
//
// Protocol: line-delimited JSON, one request per line (submit | stats |
// archive_stats — see src/include/ppsim/net/server.hpp). Results stream
// back per cell as they complete; a job whose cells are all cached answers
// byte-identically to the run that computed them, re-executing nothing.
// ppsim_client is the matching CLI; `nc -U` works in a pinch.
//
// The daemon is single-job-at-a-time by design (one sweep saturates the
// worker pool) but accepts many connections. --accept N exits after N
// connections close, which is how the CI smoke lane runs a daemon without
// signal plumbing.
#include <iostream>

#include "ppsim/net/server.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  net::ServerConfig config;
  config.socket_path = cli.get_string("socket", "");
  config.service.cache_dir = cli.get_string("cache-dir", "");
  config.service.cache_memory =
      static_cast<std::size_t>(cli.get_int("cache-mem", 256));
  config.service.max_threads =
      static_cast<unsigned>(cli.get_int("threads", 0));
  config.accept_limit = static_cast<std::uint64_t>(cli.get_int("accept", 0));
  cli.validate_no_unknown_flags();
  PPSIM_CHECK(!config.socket_path.empty(), "--socket PATH is required");

  net::SweepServer server(config);
  std::cout << "ppsim_serve listening on " << config.socket_path
            << (config.service.cache_dir.empty()
                    ? " (memory cache only)"
                    : " (cache dir " + config.service.cache_dir + ")")
            << "\n"
            << std::flush;
  server.run();
  std::cout << "ppsim_serve done: " << server.service().stats_json() << "\n";
  return 0;
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
