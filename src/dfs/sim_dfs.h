#ifndef CUMULON_DFS_SIM_DFS_H_
#define CUMULON_DFS_SIM_DFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace cumulon {

class Tile;  // matrix/tile.h; the payload type of a file

/// Configuration for the simulated distributed file system.
struct DfsOptions {
  int num_nodes = 4;                         // data nodes in the cluster
  int replication = 3;                       // replicas per block
  int64_t block_size = 64LL * 1024 * 1024;   // HDFS-style 64 MiB blocks
  uint64_t seed = 42;                        // replica placement randomness

  /// Injected service time of payload reads: each Read that returns data
  /// sleeps read_latency_seconds + size / read_bytes_per_sec (term skipped
  /// when the respective knob is 0). The in-process DFS is otherwise
  /// instant, which makes real-engine IO/compute-overlap experiments
  /// meaningless — these knobs recreate the disk/network latency a real
  /// DFS read would have. Metadata-only reads (simulation mode) never
  /// sleep, so predictor runs are unaffected.
  double read_latency_seconds = 0.0;
  double read_bytes_per_sec = 0.0;
};

/// One block of a file and the nodes holding its replicas.
struct BlockInfo {
  int64_t size = 0;
  std::vector<int> replicas;
};

/// Metadata for a stored file.
struct DfsFileInfo {
  int64_t size = 0;
  std::vector<BlockInfo> blocks;
};

/// Aggregate transfer counters, queryable globally or per node.
struct DfsStats {
  int64_t bytes_written = 0;
  int64_t bytes_read_local = 0;
  int64_t bytes_read_remote = 0;
  int64_t reads = 0;
  int64_t writes = 0;

  int64_t bytes_read() const { return bytes_read_local + bytes_read_remote; }
  double locality_fraction() const {
    const int64_t total = bytes_read();
    return total == 0 ? 1.0 : static_cast<double>(bytes_read_local) / total;
  }
};

/// An in-process simulator of an HDFS-like distributed file system.
///
/// What it models (the aspects Cumulon's results depend on): files split
/// into blocks, blocks replicated across named data nodes, the
/// first-replica-on-the-writer placement policy, and local- vs
/// remote-read accounting. What it does not model: permissions, append,
/// failures of the namenode, wire formats.
///
/// A file's payload is an optional tile, so the real execution engine can
/// round-trip actual tile data through the same path the simulator meters;
/// simulation-only runs pass nullptr and only metadata moves.
///
/// Thread-safe.
class SimDfs {
 public:
  explicit SimDfs(const DfsOptions& options);

  const DfsOptions& options() const { return options_; }

  /// Creates (or overwrites) `path` with `size` bytes. `writer_node` gets
  /// the first replica of every block when in [0, num_nodes); remaining
  /// replicas go to distinct random nodes.
  Status Write(const std::string& path, int64_t size, int writer_node,
               std::shared_ptr<const Tile> payload);

  /// Reads the whole file, attributing each block to a local read if
  /// `reader_node` holds a replica and a remote read otherwise.
  /// Returns the payload stored at write time (may be null).
  Result<std::shared_ptr<const Tile>> Read(const std::string& path,
                                           int reader_node);

  Status Delete(const std::string& path);

  /// Deletes every file whose path starts with `prefix`; returns the count.
  int64_t DeletePrefix(const std::string& prefix);

  bool Exists(const std::string& path) const;

  Result<DfsFileInfo> Stat(const std::string& path) const;

  /// Distinct nodes holding at least one replica of at least one block.
  Result<std::vector<int>> NodesHosting(const std::string& path) const;

  /// Simulates the crash of a data node: every replica it held vanishes
  /// and it stops receiving new ones. Returns the number of blocks that
  /// lost a replica. Blocks whose last replica is lost become unreadable
  /// until overwritten.
  int64_t KillNode(int node);

  /// Restores redundancy for under-replicated blocks by copying them to
  /// random live nodes (the HDFS namenode's re-replication). Returns the
  /// bytes copied — the cluster's recovery network traffic.
  int64_t ReReplicate();

  bool IsNodeLive(int node) const;
  int NumLiveNodes() const;

  DfsStats TotalStats() const;
  DfsStats NodeStats(int node) const;
  void ResetStats();

  int64_t NumFiles() const;
  int64_t TotalStoredBytes() const;

  /// Bytes physically stored on `node` (i.e., counting replication).
  int64_t NodeStoredBytes(int node) const;

 private:
  struct FileEntry {
    DfsFileInfo info;
    std::shared_ptr<const Tile> payload;
  };

  std::vector<int> PlaceReplicasLocked(int writer_node) CUMULON_REQUIRES(mu_);

  const DfsOptions options_;
  mutable Mutex mu_{"SimDfs::mu_"};
  Rng rng_ CUMULON_GUARDED_BY(mu_);
  std::map<std::string, FileEntry> files_ CUMULON_GUARDED_BY(mu_);
  DfsStats total_ CUMULON_GUARDED_BY(mu_);
  std::vector<DfsStats> per_node_ CUMULON_GUARDED_BY(mu_);
  std::vector<bool> node_live_ CUMULON_GUARDED_BY(mu_);
};

}  // namespace cumulon

#endif  // CUMULON_DFS_SIM_DFS_H_
