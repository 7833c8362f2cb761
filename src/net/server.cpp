#include "ppsim/net/server.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "ppsim/io/trajectory.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/json.hpp"

namespace ppsim::net {

namespace {

std::string error_line(const std::string& message) {
  return JsonObject().field("type", "error").field("error", message).str();
}

std::string hex64(std::uint64_t v) {
  constexpr char hex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] = hex[(v >> (60 - 4 * i)) & 0xf];
  }
  return out;
}

/// Expands "archive" (file | directory | comma list) into archive paths,
/// mirroring ppsim_query's --archive semantics: directory entries that are
/// not trajectory archives are skipped, explicitly named files must parse.
std::vector<std::string> expand_archives(const std::string& flag) {
  std::vector<std::string> paths;
  std::stringstream ss(flag);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) continue;
    if (std::filesystem::is_directory(entry)) {
      std::vector<std::string> found;
      for (const auto& file : std::filesystem::directory_iterator(entry)) {
        if (!file.is_regular_file()) continue;
        std::ifstream in(file.path(), std::ios::binary);
        char magic[8] = {};
        in.read(magic, 8);
        if (in.gcount() == 8 &&
            std::string_view(magic, 8) == io::kTrajectoryMagic) {
          found.push_back(file.path().string());
        }
      }
      std::sort(found.begin(), found.end());
      paths.insert(paths.end(), found.begin(), found.end());
    } else {
      paths.push_back(entry);
    }
  }
  PPSIM_CHECK(!paths.empty(), "'archive' matched no files: " + flag);
  return paths;
}

/// One archive's summary, the same fields ppsim_query --json reports.
JsonObject archive_summary(const std::string& path,
                           const io::TrajectoryReader& reader) {
  const io::TrajectoryHeader& h = reader.header();
  JsonObject obj;
  obj.field("path", path)
      .field("engine", h.engine)
      .field("protocol", h.protocol)
      .field("seed", static_cast<std::int64_t>(h.seed))
      .field("n", static_cast<std::int64_t>(h.population))
      .field("k", static_cast<std::int64_t>(h.k))
      .field("num_states", static_cast<std::int64_t>(h.num_states))
      .field("stride", static_cast<std::int64_t>(h.stride))
      .field("checkpoint_every", static_cast<std::int64_t>(h.checkpoint_every))
      .field("max_interactions", static_cast<std::int64_t>(h.max_interactions))
      .field("spec_hash", hex64(h.spec_hash))
      .field("build_version", h.build_version)
      .field("blocks", static_cast<std::int64_t>(reader.num_blocks()))
      .field("samples", static_cast<std::int64_t>(reader.total_samples()))
      .field("checkpoints",
             static_cast<std::int64_t>(reader.checkpoints().size()))
      .field("finished", reader.finished())
      .field("torn_tail", reader.torn_tail());
  if (reader.finished()) {
    const io::TrajectoryEnd end = *reader.end();
    obj.field("stabilized", end.stabilized)
        .field("final_interactions", static_cast<std::int64_t>(end.interactions))
        .field("final_parallel_time",
               static_cast<double>(end.interactions) /
                   static_cast<double>(h.population))
        .field("consensus", end.consensus.has_value()
                                ? static_cast<std::int64_t>(*end.consensus)
                                : std::int64_t{-1});
  }
  std::vector<JsonObject> channel_stats;
  for (const auto& name : h.channels) {
    JsonObject cs;
    cs.field("channel", name)
        .field("min", reader.channel_min(name))
        .field("max", reader.channel_max(name));
    channel_stats.push_back(std::move(cs));
  }
  obj.field("channel_stats", channel_stats);
  return obj;
}

}  // namespace

SweepServer::SweepServer(ServerConfig config)
    : config_(std::move(config)), service_(config_.service) {
  PPSIM_CHECK(!config_.socket_path.empty(),
              "sweep server needs a socket path");
}

SweepServer::~SweepServer() { stop(); }

void SweepServer::run() {
  Listener listener = Listener::listen_on(config_.socket_path);
  {
    const std::lock_guard<std::mutex> lock(listener_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      return;  // stop() raced construction; don't serve
    }
    listener_ = &listener;
  }
  std::uint64_t accepted = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (config_.accept_limit > 0 && accepted >= config_.accept_limit) break;
    Socket client = listener.accept();
    if (!client.valid()) break;  // listener shut down by stop()
    const std::uint64_t id = ++accepted;
    reap_finished_connections();
    // The thread reports itself finished under the same lock that guards
    // its insertion, so the reaper never sees an id it cannot find.
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.emplace(
        id, std::thread([this, id, socket = std::move(client)]() mutable {
          serve_connection(std::move(socket));
          const std::lock_guard<std::mutex> done(connections_mutex_);
          finished_.push_back(id);
        }));
  }
  {
    const std::lock_guard<std::mutex> lock(listener_mutex_);
    listener_ = nullptr;
  }
  listener.close();
  std::unordered_map<std::uint64_t, std::thread> to_join;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    to_join.swap(connections_);
  }
  for (auto& [id, t] : to_join) t.join();
}

void SweepServer::stop() {
  stopping_.store(true, std::memory_order_release);
  // Only wake accept(): run() owns the fd and closes it after its loop, so
  // nothing here writes state the accept loop reads.
  const std::lock_guard<std::mutex> lock(listener_mutex_);
  if (listener_ != nullptr) listener_->shutdown();
}

std::size_t SweepServer::retained_connections() const {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.size();
}

void SweepServer::reap_finished_connections() {
  std::vector<std::thread> done;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const std::uint64_t id : finished_) {
      const auto it = connections_.find(id);
      done.push_back(std::move(it->second));
      connections_.erase(it);
    }
    finished_.clear();
  }
  // Each thread has already left serve_connection, so these joins return
  // as soon as it unwinds.
  for (std::thread& t : done) t.join();
}

void SweepServer::serve_connection(Socket socket) {
  LineChannel channel(std::move(socket));
  while (!stopping_.load(std::memory_order_acquire)) {
    const std::optional<std::string> line = channel.read_line();
    if (!line.has_value()) return;  // client closed (or misbehaved)
    if (line->empty()) continue;
    handle_request(channel, *line);
  }
}

void SweepServer::handle_request(LineChannel& channel,
                                 const std::string& line) {
  try {
    const JsonValue request = JsonValue::parse(line);
    const std::string type = request.at("type").as_string();
    if (type == "submit") {
      service_.run_job(
          request,
          [&channel](const std::string& out) {
            return channel.write_line(out);
          },
          &stopping_);
      return;
    }
    if (type == "stats") {
      channel.write_line(service_.stats_json());
      return;
    }
    if (type == "archive_stats") {
      const std::string flag = request.at("archive").as_string();
      const std::vector<std::string> paths = expand_archives(flag);
      for (const std::string& path : paths) {
        const io::TrajectoryReader reader(path);
        JsonObject out;
        out.field("type", "archive").field("data", archive_summary(path, reader));
        if (!channel.write_line(out.str())) return;
      }
      channel.write_line(JsonObject()
                             .field("type", "done")
                             .field("archives",
                                    static_cast<std::int64_t>(paths.size()))
                             .str());
      return;
    }
    channel.write_line(error_line("unknown request type '" + type + "'"));
  } catch (const std::exception& e) {
    channel.write_line(error_line(e.what()));
  }
}

}  // namespace ppsim::net
