#include "dfs/dfs_tile_store.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "matrix/tile_io.h"
#include "obs/trace.h"

namespace cumulon {

namespace {
uint64_t TileChecksum(const Tile& tile) {
  return Checksum64(tile.data(), tile.size() * sizeof(double));
}
}  // namespace

std::string DfsTileStore::TilePath(const std::string& matrix, TileId id) {
  return StrCat("/matrix/", matrix, "/t_", id.row, "_", id.col);
}

void DfsTileStore::AttachMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    counters_ = StoreCounters{};
    return;
  }
  counters_.read_ops = metrics->counter("dfs.read.ops");
  counters_.read_bytes = metrics->counter("dfs.read.bytes");
  counters_.write_ops = metrics->counter("dfs.write.ops");
  counters_.write_bytes = metrics->counter("dfs.write.bytes");
  counters_.delete_ops = metrics->counter("dfs.delete.ops");
  counters_.cache_hits = metrics->counter("cache.hits");
  counters_.cache_misses = metrics->counter("cache.misses");
  counters_.cache_hit_bytes = metrics->counter("cache.hit_bytes");
  counters_.prefetch_issued = metrics->counter("prefetch.issued");
  counters_.prefetch_hits = metrics->counter("prefetch.hit");
  counters_.prefetch_coalesced = metrics->counter("prefetch.coalesced");
  counters_.prefetch_stall_ns = metrics->counter("prefetch.stall_ns");
  counters_.prefetch_stall_seconds =
      metrics->histogram("prefetch.stall_seconds");
}

void DfsTileStore::EnablePrefetch(int num_threads) {
  if (prefetch_pool_ != nullptr) return;
  prefetch_clock_.Restart();
  if (Tracer* tracer = GlobalTracer()) {
    prefetch_trace_base_ = tracer->time_offset();
  }
  prefetch_pool_ = std::make_unique<ThreadPool>(std::max(num_threads, 1));
}

std::shared_ptr<const Tile> DfsTileStore::CacheLookup(const std::string& path,
                                                      int reader_node) {
  TileCache* cache = caches_ != nullptr ? caches_->node(reader_node) : nullptr;
  if (cache == nullptr) return nullptr;
  if (std::shared_ptr<const Tile> cached = cache->Get(path)) {
    if (counters_.cache_hits != nullptr) {
      counters_.cache_hits->Increment();
      counters_.cache_hit_bytes->Add(cached->SizeBytes());
    }
    return cached;
  }
  if (counters_.cache_misses != nullptr) {
    counters_.cache_misses->Increment();
  }
  return nullptr;
}

std::shared_ptr<TileFetchState> DfsTileStore::StartFetch(
    const std::string& matrix, TileId id, int reader_node) {
  auto key = std::make_pair(TilePath(matrix, id), reader_node);
  std::shared_ptr<TileFetchState> state;
  {
    MutexLock lock(&prefetch_mu_);
    auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      it->second->AddWaiter();
      if (counters_.prefetch_coalesced != nullptr) {
        counters_.prefetch_coalesced->Increment();
      }
      return it->second;
    }
    state = std::make_shared<TileFetchState>();
    state->stall_callback = [this](double seconds) {
      if (counters_.prefetch_stall_ns != nullptr) {
        counters_.prefetch_stall_ns->Add(
            static_cast<int64_t>(seconds * 1e9));
      }
      if (counters_.prefetch_stall_seconds != nullptr) {
        counters_.prefetch_stall_seconds->Observe(seconds);
      }
    };
    in_flight_.emplace(key, state);
    if (counters_.prefetch_issued != nullptr) {
      counters_.prefetch_issued->Increment();
    }
  }
  prefetch_pool_->Submit([this, state, key = std::move(key), matrix, id,
                          reader_node] {
    // The abandon decision must be made under prefetch_mu_ and paired with
    // unpublishing the state: AddWaiter (a coalescing GetAsync) also runs
    // under prefetch_mu_, so once we observe "abandoned" here no new waiter
    // can join before the state leaves in_flight_ — without this, a live
    // request could coalesce onto the fetch an instant before it resolves
    // as Cancelled and spuriously fail.
    {
      bool abandoned = false;
      {
        MutexLock lock(&prefetch_mu_);
        if (state->abandoned()) {
          abandoned = true;
          auto it = in_flight_.find(key);
          if (it != in_flight_.end() && it->second == state) {
            in_flight_.erase(it);
          }
        }
      }
      if (abandoned) {
        state->Resolve(Status::Cancelled(
            StrCat("prefetch of tile ", id, " of '", matrix, "' cancelled")));
        return;
      }
    }
    const double t0 = prefetch_clock_.ElapsedSeconds();
    // The request already made its one cache lookup (GetAsync).
    state->Resolve(ReadThrough(matrix, id, key.first, reader_node));
    if (Tracer* tracer = GlobalTracer()) {
      TraceSpan span;
      span.name = StrCat("prefetch ", key.first);
      span.category = "prefetch";
      span.parent_id = -1;  // pool work is not nested under any job span
      span.machine = reader_node;
      span.slot = 1000 + ThreadPool::CurrentWorkerIndex();
      span.start_seconds = prefetch_trace_base_ + t0;
      span.duration_seconds = prefetch_clock_.ElapsedSeconds() - t0;
      tracer->AddSpan(std::move(span));
    }
    MutexLock lock(&prefetch_mu_);
    auto it = in_flight_.find(key);
    if (it != in_flight_.end() && it->second == state) in_flight_.erase(it);
  });
  return state;
}

TileFuture DfsTileStore::GetAsync(const std::string& matrix, TileId id,
                                  int reader_node) {
  if (prefetch_pool_ == nullptr) {
    return TileFuture::Ready(Get(matrix, id, reader_node));
  }
  // Cache fast path: resolved futures for resident tiles, no pool hop.
  if (std::shared_ptr<const Tile> cached =
          CacheLookup(TilePath(matrix, id), reader_node)) {
    if (counters_.prefetch_hits != nullptr) {
      counters_.prefetch_hits->Increment();
    }
    return TileFuture::Ready(std::move(cached));
  }
  // Coalescing onto an existing fetch registers one more waiter so this
  // future's Cancel cannot abandon the fetch for the others; a freshly
  // created state already counts its creator as the first waiter.
  return TileFuture::FromState(StartFetch(matrix, id, reader_node));
}

Status DfsTileStore::Put(const std::string& matrix, TileId id,
                         std::shared_ptr<const Tile> tile, int writer_node) {
  const int64_t bytes = tile->SizeBytes();
  const std::string path = TilePath(matrix, id);
  if (verify_checksums_) {
    // Hash before locking: concurrent Gets take checksum_mu_ to look up
    // their expected value.
    const uint64_t checksum = TileChecksum(*tile);
    MutexLock lock(&checksum_mu_);
    checksums_[path] = checksum;
  }
  if (caches_ != nullptr) {
    // Every node's cached copy is stale once the overwrite lands; the
    // writer offers the fresh tile to its own cache (its next reader is
    // likely local), which admits it into free space or if its key is hot.
    caches_->InvalidateAll(path);
    if (TileCache* cache = caches_->node(writer_node)) cache->Put(path, tile);
  }
  if (counters_.write_ops != nullptr) {
    counters_.write_ops->Increment();
    counters_.write_bytes->Add(bytes);
  }
  return dfs_->Write(path, bytes, writer_node, std::move(tile));
}

Result<std::shared_ptr<const Tile>> DfsTileStore::Get(
    const std::string& matrix, TileId id, int reader_node) {
  const std::string path = TilePath(matrix, id);
  if (std::shared_ptr<const Tile> cached = CacheLookup(path, reader_node)) {
    return cached;  // verified at miss time; no DFS traffic
  }
  return ReadThrough(matrix, id, path, reader_node);
}

Result<std::shared_ptr<const Tile>> DfsTileStore::ReadThrough(
    const std::string& matrix, TileId id, const std::string& path,
    int reader_node) {
  CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> tile,
                           dfs_->Read(path, reader_node));
  if (tile == nullptr) {
    return Status::Internal(
        StrCat("tile ", id, " of '", matrix, "' has no payload (metadata-only",
               " write read back through DfsTileStore)"));
  }
  if (counters_.read_ops != nullptr) {
    counters_.read_ops->Increment();
    counters_.read_bytes->Add(tile->SizeBytes());
  }
  if (verify_checksums_) {
    uint64_t expected = 0;
    bool have_expected = false;
    {
      MutexLock lock(&checksum_mu_);
      auto it = checksums_.find(path);
      if (it != checksums_.end()) {
        expected = it->second;
        have_expected = true;
      }
    }
    if (have_expected && TileChecksum(*tile) != expected) {
      return Status::Internal(
          StrCat("checksum mismatch reading tile ", id, " of '", matrix,
                 "' (corrupted block)"));
    }
  }
  if (caches_ != nullptr) {
    if (TileCache* cache = caches_->node(reader_node)) cache->Put(path, tile);
  }
  return tile;
}

Status DfsTileStore::DeleteMatrix(const std::string& matrix) {
  const std::string prefix = StrCat("/matrix/", matrix, "/");
  if (caches_ != nullptr) caches_->InvalidatePrefixAll(prefix);
  if (counters_.delete_ops != nullptr) counters_.delete_ops->Increment();
  dfs_->DeletePrefix(prefix);
  return Status::OK();
}

Status DfsTileStore::PutMeta(const std::string& matrix, TileId id,
                             int64_t bytes, int writer_node) {
  if (counters_.write_ops != nullptr) {
    counters_.write_ops->Increment();
    counters_.write_bytes->Add(bytes);
  }
  return dfs_->Write(TilePath(matrix, id), bytes, writer_node, nullptr);
}

std::vector<int> DfsTileStore::PreferredNodes(const std::string& matrix,
                                              TileId id) {
  auto nodes = dfs_->NodesHosting(TilePath(matrix, id));
  if (!nodes.ok()) return {};
  return std::move(nodes).value();
}

}  // namespace cumulon
