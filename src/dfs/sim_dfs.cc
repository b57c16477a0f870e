#include "dfs/sim_dfs.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"

namespace cumulon {

SimDfs::SimDfs(const DfsOptions& options)
    : options_(options),
      rng_(options.seed),
      per_node_(options.num_nodes),
      node_live_(options.num_nodes, true) {
  CUMULON_CHECK_GT(options_.num_nodes, 0);
  CUMULON_CHECK_GT(options_.replication, 0);
  CUMULON_CHECK_GT(options_.block_size, 0);
}

std::vector<int> SimDfs::PlaceReplicasLocked(int writer_node) {
  const int n = options_.num_nodes;
  int live = 0;
  for (bool alive : node_live_) live += alive ? 1 : 0;
  const int r = std::min(options_.replication, live);
  std::vector<int> replicas;
  replicas.reserve(r);
  if (writer_node >= 0 && writer_node < n && node_live_[writer_node]) {
    replicas.push_back(writer_node);  // HDFS: first replica on the writer.
  }
  while (static_cast<int>(replicas.size()) < r) {
    const int candidate = static_cast<int>(rng_.NextUint64(n));
    if (node_live_[candidate] &&
        std::find(replicas.begin(), replicas.end(), candidate) ==
            replicas.end()) {
      replicas.push_back(candidate);
    }
  }
  return replicas;
}

int64_t SimDfs::KillNode(int node) {
  MutexLock lock(&mu_);
  CUMULON_CHECK(node >= 0 && node < options_.num_nodes);
  if (!node_live_[node]) return 0;
  node_live_[node] = false;
  int64_t lost = 0;
  for (auto& [path, entry] : files_) {
    for (BlockInfo& block : entry.info.blocks) {
      auto it = std::find(block.replicas.begin(), block.replicas.end(), node);
      if (it != block.replicas.end()) {
        block.replicas.erase(it);
        ++lost;
      }
    }
  }
  return lost;
}

int64_t SimDfs::ReReplicate() {
  MutexLock lock(&mu_);
  std::vector<int> live_nodes;
  for (int n = 0; n < options_.num_nodes; ++n) {
    if (node_live_[n]) live_nodes.push_back(n);
  }
  if (live_nodes.empty()) return 0;
  const int target = std::min<int>(options_.replication,
                                   static_cast<int>(live_nodes.size()));
  int64_t bytes_copied = 0;
  for (auto& [path, entry] : files_) {
    for (BlockInfo& block : entry.info.blocks) {
      // A block whose last replica died is gone; re-replication cannot
      // resurrect it.
      if (block.replicas.empty()) continue;
      while (static_cast<int>(block.replicas.size()) < target) {
        const int candidate =
            live_nodes[rng_.NextUint64(live_nodes.size())];
        if (std::find(block.replicas.begin(), block.replicas.end(),
                      candidate) == block.replicas.end()) {
          block.replicas.push_back(candidate);
          bytes_copied += block.size;
        }
      }
    }
  }
  return bytes_copied;
}

bool SimDfs::IsNodeLive(int node) const {
  MutexLock lock(&mu_);
  CUMULON_CHECK(node >= 0 && node < options_.num_nodes);
  return node_live_[node];
}

int SimDfs::NumLiveNodes() const {
  MutexLock lock(&mu_);
  int live = 0;
  for (bool alive : node_live_) live += alive ? 1 : 0;
  return live;
}

Status SimDfs::Write(const std::string& path, int64_t size, int writer_node,
                     std::shared_ptr<const Tile> payload) {
  if (size < 0) return Status::InvalidArgument("negative file size");
  MutexLock lock(&mu_);
  FileEntry entry;
  entry.info.size = size;
  int64_t remaining = size;
  do {
    BlockInfo block;
    block.size = std::min(remaining, options_.block_size);
    block.replicas = PlaceReplicasLocked(writer_node);
    entry.info.blocks.push_back(std::move(block));
    remaining -= entry.info.blocks.back().size;
  } while (remaining > 0);
  entry.payload = std::move(payload);
  files_[path] = std::move(entry);
  total_.bytes_written += size;
  total_.writes += 1;
  if (writer_node >= 0 && writer_node < options_.num_nodes) {
    per_node_[writer_node].bytes_written += size;
    per_node_[writer_node].writes += 1;
  }
  return Status::OK();
}

Result<std::shared_ptr<const Tile>> SimDfs::Read(const std::string& path,
                                                 int reader_node) {
  std::shared_ptr<const Tile> payload;
  double service_seconds = 0.0;
  {
    MutexLock lock(&mu_);
    auto it = files_.find(path);
    if (it == files_.end()) {
      return Status::NotFound(StrCat("DFS file not found: ", path));
    }
    for (const BlockInfo& block : it->second.info.blocks) {
      if (block.replicas.empty()) {
        return Status::FailedPrecondition(
            StrCat("block of ", path, " lost all replicas (node failures)"));
      }
    }
    total_.reads += 1;
    const bool known_node =
        reader_node >= 0 && reader_node < options_.num_nodes;
    if (known_node) per_node_[reader_node].reads += 1;
    for (const BlockInfo& block : it->second.info.blocks) {
      const bool local =
          known_node && std::find(block.replicas.begin(),
                                  block.replicas.end(),
                                  reader_node) != block.replicas.end();
      if (local) {
        total_.bytes_read_local += block.size;
        per_node_[reader_node].bytes_read_local += block.size;
      } else {
        total_.bytes_read_remote += block.size;
        if (known_node) {
          per_node_[reader_node].bytes_read_remote += block.size;
        }
      }
    }
    payload = it->second.payload;
    // Injected service time for payload reads only; metadata reads stay
    // instant. Computed under the lock, slept outside it so concurrent
    // readers overlap their service times like independent disks would.
    if (payload != nullptr) {
      service_seconds = options_.read_latency_seconds;
      if (options_.read_bytes_per_sec > 0.0) {
        service_seconds += static_cast<double>(it->second.info.size) /
                           options_.read_bytes_per_sec;
      }
    }
  }
  if (service_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(service_seconds));
  }
  return payload;
}

Status SimDfs::Delete(const std::string& path) {
  MutexLock lock(&mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound(StrCat("DFS file not found: ", path));
  }
  return Status::OK();
}

int64_t SimDfs::DeletePrefix(const std::string& prefix) {
  MutexLock lock(&mu_);
  int64_t count = 0;
  auto it = files_.lower_bound(prefix);
  while (it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    it = files_.erase(it);
    ++count;
  }
  return count;
}

bool SimDfs::Exists(const std::string& path) const {
  MutexLock lock(&mu_);
  return files_.count(path) > 0;
}

Result<DfsFileInfo> SimDfs::Stat(const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(StrCat("DFS file not found: ", path));
  }
  return it->second.info;
}

Result<std::vector<int>> SimDfs::NodesHosting(const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(StrCat("DFS file not found: ", path));
  }
  std::vector<int> nodes;
  for (const BlockInfo& block : it->second.info.blocks) {
    for (int r : block.replicas) {
      if (std::find(nodes.begin(), nodes.end(), r) == nodes.end()) {
        nodes.push_back(r);
      }
    }
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

DfsStats SimDfs::TotalStats() const {
  MutexLock lock(&mu_);
  return total_;
}

DfsStats SimDfs::NodeStats(int node) const {
  MutexLock lock(&mu_);
  CUMULON_CHECK(node >= 0 && node < options_.num_nodes);
  return per_node_[node];
}

void SimDfs::ResetStats() {
  MutexLock lock(&mu_);
  total_ = DfsStats();
  for (auto& s : per_node_) s = DfsStats();
}

int64_t SimDfs::NumFiles() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(files_.size());
}

int64_t SimDfs::TotalStoredBytes() const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (const auto& [path, entry] : files_) total += entry.info.size;
  return total;
}

int64_t SimDfs::NodeStoredBytes(int node) const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (const auto& [path, entry] : files_) {
    for (const BlockInfo& block : entry.info.blocks) {
      if (std::find(block.replicas.begin(), block.replicas.end(), node) !=
          block.replicas.end()) {
        total += block.size;
      }
    }
  }
  return total;
}

}  // namespace cumulon
