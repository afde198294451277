#include "prt/translator.h"

#include <algorithm>
#include <cstring>

namespace arkfs {

Prt::Prt(ObjectStorePtr store, std::uint64_t chunk_size,
         AsyncIoConfig async_config)
    : store_(std::move(store)),
      chunk_size_(chunk_size == 0 ? store_->max_object_size() : chunk_size),
      async_(std::make_shared<AsyncObjectIo>(store_, async_config)) {}

Result<Inode> Prt::LoadInode(const Uuid& ino) {
  ARKFS_ASSIGN_OR_RETURN(Bytes raw, store_->Get(InodeKey(ino)));
  return Inode::Decode(raw);
}

std::vector<Result<Inode>> Prt::LoadInodes(const std::vector<Uuid>& inos) {
  std::vector<Result<Inode>> out;
  out.reserve(inos.size());
  const std::size_t batch =
      std::max<std::size_t>(1, async_->config().max_in_flight);
  for (std::size_t begin = 0; begin < inos.size(); begin += batch) {
    const std::size_t end = std::min(inos.size(), begin + batch);
    std::vector<BatchGet> gets(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      gets[i - begin].key = InodeKey(inos[i]);
    }
    for (auto& raw : async_->MultiGet(std::move(gets)).results) {
      if (raw.ok()) {
        out.push_back(Inode::Decode(*raw));
      } else {
        out.push_back(raw.status());
      }
    }
  }
  return out;
}

Status Prt::StoreInode(const Inode& inode) {
  return store_->Put(InodeKey(inode.ino), inode.Encode());
}

Status Prt::DeleteInode(const Uuid& ino) {
  return store_->Delete(InodeKey(ino));
}

namespace {

// Merges raw live-slot GET results into one entry list; result index i must
// hold the LIVE slot object of shard i. A kNoEnt object is an empty shard
// (written lazily); any other failure — including an undecodable payload —
// fails the merge loudly.
Result<std::vector<Dentry>> MergeShardResults(std::vector<Result<Bytes>>& raw,
                                              std::size_t base,
                                              std::size_t stride,
                                              std::uint32_t count,
                                              std::uint64_t reserve_hint) {
  std::vector<Dentry> all;
  all.reserve(reserve_hint < (1u << 22) ? reserve_hint : 0);
  for (std::uint32_t s = 0; s < count; ++s) {
    auto& r = raw[base + s * stride];
    if (r.code() == Errc::kNoEnt) continue;
    if (!r.ok()) return r.status();
    ARKFS_ASSIGN_OR_RETURN(DentryShardData part, DecodeDentryShardObject(*r));
    all.insert(all.end(), std::make_move_iterator(part.entries.begin()),
               std::make_move_iterator(part.entries.end()));
  }
  return all;
}

}  // namespace

Prt::DirObjects Prt::LoadDirObjects(const Uuid& dir_ino,
                                    std::uint32_t shard_hint) {
  if (!IsPow2(shard_hint) || shard_hint > kMaxDentryShards) shard_hint = 1;
  // Speculative first batch: we don't yet know the layout, so cover every
  // possibility — the manifest and legacy block are tiny, and fetching both
  // slot objects of every hinted shard (the live slot is only known once
  // the manifest decodes) keeps a correct hint at a single round trip.
  std::vector<BatchGet> gets(4 + 2 * shard_hint);
  gets[0].key = InodeKey(dir_ino);
  gets[1].key = JournalKey(dir_ino);
  gets[2].key = DentryManifestKey(dir_ino);
  gets[3].key = DentryKey(dir_ino);
  for (std::uint32_t s = 0; s < shard_hint; ++s) {
    gets[4 + 2 * s].key = DentryShardKey(dir_ino, shard_hint, s, 0);
    gets[4 + 2 * s + 1].key = DentryShardKey(dir_ino, shard_hint, s, 1);
  }
  auto mg = async_->MultiGet(std::move(gets));

  DirObjects out;
  if (mg.results[0].ok()) {
    out.inode = Inode::Decode(*mg.results[0]);
  } else {
    out.inode = mg.results[0].status();
  }
  out.journal = std::move(mg.results[1]);

  auto& raw_manifest = mg.results[2];
  if (raw_manifest.code() == Errc::kNoEnt) {
    // Legacy layout (or never checkpointed: empty, not an error).
    if (mg.results[3].ok()) {
      out.dentries = DecodeDentryBlock(*mg.results[3]);
    } else if (mg.results[3].code() == Errc::kNoEnt) {
      out.dentries = std::vector<Dentry>{};
    } else {
      out.dentries = mg.results[3].status();
    }
    return out;
  }
  if (!raw_manifest.ok()) {
    out.dentries = raw_manifest.status();
    return out;
  }
  auto manifest = DecodeDentryManifest(*raw_manifest);
  if (!manifest.ok()) {
    out.dentries = manifest.status();
    return out;
  }
  out.shard_count = manifest->shard_count;
  out.entry_count_hint = manifest->entry_count;

  if (manifest->shard_count == shard_hint) {
    // Pick each shard's live slot from the speculative pair.
    std::vector<Result<Bytes>> live;
    live.reserve(shard_hint);
    for (std::uint32_t s = 0; s < shard_hint; ++s) {
      live.push_back(std::move(mg.results[4 + 2 * s + manifest->SlotOf(s)]));
    }
    out.dentries = MergeShardResults(live, 0, 1, shard_hint,
                                     manifest->entry_count);
    return out;
  }
  // Hint missed: one more overlapped batch for the actual live shard set.
  std::vector<BatchGet> shard_gets(manifest->shard_count);
  for (std::uint32_t s = 0; s < manifest->shard_count; ++s) {
    shard_gets[s].key = DentryShardKey(dir_ino, manifest->shard_count, s,
                                       manifest->SlotOf(s));
  }
  auto sg = async_->MultiGet(std::move(shard_gets));
  out.dentries = MergeShardResults(sg.results, 0, 1, manifest->shard_count,
                                   manifest->entry_count);
  return out;
}

Result<std::vector<Dentry>> Prt::LoadDentryBlock(const Uuid& dir_ino) {
  auto raw = store_->Get(DentryKey(dir_ino));
  if (!raw.ok()) {
    // A directory created but never checkpointed has no dentry block yet;
    // that is an empty directory, not an error.
    if (raw.code() == Errc::kNoEnt) return std::vector<Dentry>{};
    return raw.status();
  }
  return DecodeDentryBlock(*raw);
}

Status Prt::StoreDentryBlock(const Uuid& dir_ino,
                             const std::vector<Dentry>& entries) {
  return store_->Put(DentryKey(dir_ino), EncodeDentryBlock(entries));
}

Status Prt::DeleteDentryBlock(const Uuid& dir_ino) {
  Status st = store_->Delete(DentryKey(dir_ino));
  if (st.code() == Errc::kNoEnt) return Status::Ok();  // never checkpointed
  return st;
}

Result<DentryManifest> Prt::LoadDentryManifest(const Uuid& dir_ino) {
  ARKFS_ASSIGN_OR_RETURN(Bytes raw, store_->Get(DentryManifestKey(dir_ino)));
  return DecodeDentryManifest(raw);
}

Status Prt::StoreDentryManifest(const Uuid& dir_ino, const DentryManifest& m) {
  return store_->Put(DentryManifestKey(dir_ino), EncodeDentryManifest(m));
}

Result<std::vector<Dentry>> Prt::LoadDentryShard(const Uuid& dir_ino,
                                                 std::uint32_t shard_count,
                                                 std::uint32_t shard,
                                                 std::uint32_t slot) {
  auto raw = store_->Get(DentryShardKey(dir_ino, shard_count, shard, slot));
  if (!raw.ok()) {
    if (raw.code() == Errc::kNoEnt) return std::vector<Dentry>{};
    return raw.status();
  }
  ARKFS_ASSIGN_OR_RETURN(DentryShardData data, DecodeDentryShardObject(*raw));
  return std::move(data.entries);
}

Status Prt::StoreDentryShard(const Uuid& dir_ino, std::uint32_t shard_count,
                             std::uint32_t shard,
                             const std::vector<Dentry>& entries,
                             std::uint32_t slot, std::uint64_t epoch) {
  return store_->Put(DentryShardKey(dir_ino, shard_count, shard, slot),
                     EncodeDentryShardObject(epoch, entries));
}

Status Prt::DeleteDentryShard(const Uuid& dir_ino, std::uint32_t shard_count,
                              std::uint32_t shard, std::uint32_t slot) {
  Status st = store_->Delete(DentryShardKey(dir_ino, shard_count, shard, slot));
  if (st.code() == Errc::kNoEnt) return Status::Ok();  // lazily written
  return st;
}

Result<std::vector<DentryShardData>> Prt::LoadDentryShards(
    const Uuid& dir_ino, const DentryManifest& manifest,
    const std::vector<std::uint32_t>& shards) {
  std::vector<BatchGet> gets(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    gets[i].key = DentryShardKey(dir_ino, manifest.shard_count, shards[i],
                                 manifest.SlotOf(shards[i]));
  }
  auto mg = async_->MultiGet(std::move(gets));
  std::vector<DentryShardData> out(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    auto& r = mg.results[i];
    if (r.code() == Errc::kNoEnt) continue;  // never-written shard: empty
    if (!r.ok()) return r.status();
    // Strict: the manifest only references fully landed slot objects, so an
    // undecodable payload is real corruption and must fail loudly.
    ARKFS_ASSIGN_OR_RETURN(out[i], DecodeDentryShardObject(*r));
  }
  return out;
}

Result<std::vector<Dentry>> Prt::LoadDentries(const Uuid& dir_ino) {
  auto manifest = LoadDentryManifest(dir_ino);
  if (!manifest.ok()) {
    if (manifest.code() == Errc::kNoEnt) return LoadDentryBlock(dir_ino);
    return manifest.status();
  }
  std::vector<std::uint32_t> all(manifest->shard_count);
  for (std::uint32_t s = 0; s < manifest->shard_count; ++s) all[s] = s;
  ARKFS_ASSIGN_OR_RETURN(auto shards, LoadDentryShards(dir_ino, *manifest, all));
  std::vector<Dentry> merged;
  merged.reserve(manifest->entry_count < (1u << 22) ? manifest->entry_count
                                                    : 0);
  for (auto& part : shards) {
    merged.insert(merged.end(),
                  std::make_move_iterator(part.entries.begin()),
                  std::make_move_iterator(part.entries.end()));
  }
  return merged;
}

Status Prt::DeleteDentryObjects(const Uuid& dir_ino) {
  // The prefix matches the manifest and every shard generation; the legacy
  // block ("e<uuid>", no dot) must be named explicitly.
  ARKFS_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                         store_->List(DentryObjectPrefix(dir_ino)));
  keys.push_back(DentryKey(dir_ino));
  if (keys.size() == 1) {
    Status st = store_->Delete(keys[0]);
    if (st.code() == Errc::kNoEnt) return Status::Ok();
    return st;
  }
  return async_->MultiDelete(std::move(keys)).FirstErrorIgnoringNoEnt();
}

Result<Bytes> Prt::LoadJournal(const Uuid& dir_ino) {
  return store_->Get(JournalKey(dir_ino));
}

Status Prt::StoreJournal(const Uuid& dir_ino, ByteSpan data) {
  return store_->Put(JournalKey(dir_ino), data);
}

Status Prt::DeleteJournal(const Uuid& dir_ino) {
  Status st = store_->Delete(JournalKey(dir_ino));
  if (st.code() == Errc::kNoEnt) return Status::Ok();
  return st;
}

Result<FenceToken> Prt::LoadDirFence(const Uuid& dir_ino) {
  Result<Bytes> raw = store_->Get(FenceKey(dir_ino));
  if (!raw.ok()) {
    if (raw.status().code() == Errc::kNoEnt) return FenceToken{};
    return raw.status();
  }
  return DecodeFenceObject(*raw);
}

Status Prt::StoreDirFence(const Uuid& dir_ino, const FenceToken& token) {
  return store_->Put(FenceKey(dir_ino), EncodeFenceObject(token));
}

Status Prt::DeleteDirFence(const Uuid& dir_ino) {
  Status st = store_->Delete(FenceKey(dir_ino));
  if (st.code() == Errc::kNoEnt) return Status::Ok();
  return st;
}

Result<Bytes> Prt::ReadData(const Uuid& ino, std::uint64_t offset,
                            std::uint64_t length, std::uint64_t file_size) {
  if (offset >= file_size) return Bytes{};
  length = std::min(length, file_size - offset);
  Bytes out(length, 0);

  // Plan the per-chunk pieces up front; a single-chunk read goes straight to
  // the store, multi-chunk reads fan out as one batch so independent chunk
  // GETs overlap their round trips.
  struct Piece {
    std::uint64_t done;  // destination offset in `out`
    std::uint64_t n;
  };
  std::vector<Piece> pieces;
  std::vector<BatchGet> gets;
  std::uint64_t done = 0;
  while (done < length) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t chunk = pos / chunk_size_;
    const std::uint64_t in_chunk = pos % chunk_size_;
    const std::uint64_t n = std::min(length - done, chunk_size_ - in_chunk);
    BatchGet g;
    g.key = DataKey(ino, chunk);
    g.ranged = true;
    g.offset = in_chunk;
    g.length = n;
    gets.push_back(std::move(g));
    pieces.push_back({done, n});
    done += n;
  }

  if (gets.size() == 1) {
    auto part = store_->GetRange(gets[0].key, gets[0].offset, gets[0].length);
    if (!part.ok()) {
      if (part.code() == Errc::kNoEnt) return out;  // hole: stays zero
      return part.status();
    }
    std::memcpy(out.data() + pieces[0].done, part->data(), part->size());
    return out;
  }

  auto mg = async_->MultiGet(std::move(gets));
  for (std::size_t i = 0; i < mg.results.size(); ++i) {
    auto& part = mg.results[i];
    if (!part.ok()) {
      if (part.code() == Errc::kNoEnt) continue;  // hole: stays zero
      return part.status();
    }
    // Short chunk (sparse tail within the chunk) also reads as zeros.
    std::memcpy(out.data() + pieces[i].done, part->data(), part->size());
  }
  return out;
}

std::vector<Result<Bytes>> Prt::MultiReadData(
    const Uuid& ino,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& segments,
    std::uint64_t file_size) {
  // Flatten all segments' chunk pieces into one MultiGet, then reassemble.
  struct Piece {
    std::size_t segment;
    std::uint64_t done;  // destination offset within the segment buffer
  };
  std::vector<Piece> pieces;
  std::vector<BatchGet> gets;
  std::vector<std::uint64_t> lengths(segments.size(), 0);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const std::uint64_t offset = segments[s].first;
    if (offset >= file_size) continue;  // empty segment
    const std::uint64_t length =
        std::min(segments[s].second, file_size - offset);
    lengths[s] = length;
    std::uint64_t done = 0;
    while (done < length) {
      const std::uint64_t pos = offset + done;
      const std::uint64_t chunk = pos / chunk_size_;
      const std::uint64_t in_chunk = pos % chunk_size_;
      const std::uint64_t n = std::min(length - done, chunk_size_ - in_chunk);
      BatchGet g;
      g.key = DataKey(ino, chunk);
      g.ranged = true;
      g.offset = in_chunk;
      g.length = n;
      gets.push_back(std::move(g));
      pieces.push_back({s, done});
      done += n;
    }
  }

  auto mg = async_->MultiGet(std::move(gets));

  std::vector<Result<Bytes>> out(segments.size(), Result<Bytes>(Bytes{}));
  for (std::size_t s = 0; s < segments.size(); ++s) {
    out[s] = Bytes(lengths[s], 0);
  }
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    auto& part = mg.results[i];
    const Piece& piece = pieces[i];
    if (!out[piece.segment].ok()) continue;  // already failed
    if (!part.ok()) {
      if (part.code() == Errc::kNoEnt) continue;  // hole: stays zero
      out[piece.segment] = part.status();
      continue;
    }
    std::memcpy(out[piece.segment]->data() + piece.done, part->data(),
                part->size());
  }
  return out;
}

Status Prt::WriteData(const Uuid& ino, std::uint64_t offset, ByteSpan data) {
  // Plan per-chunk slices.
  struct Slice {
    std::string key;
    std::uint64_t in_chunk;
    ByteSpan span;
  };
  std::vector<Slice> slices;
  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t chunk = pos / chunk_size_;
    const std::uint64_t in_chunk = pos % chunk_size_;
    const std::uint64_t n =
        std::min<std::uint64_t>(data.size() - done, chunk_size_ - in_chunk);
    slices.push_back({DataKey(ino, chunk), in_chunk, data.subspan(done, n)});
    done += n;
  }
  if (slices.empty()) return Status::Ok();

  // Per-chunk store op, identical semantics for every backend capability.
  auto write_slice = [this](const Slice& s) -> Status {
    if (store_->supports_partial_write()) {
      return store_->PutRange(s.key, s.in_chunk, s.span);
    }
    std::lock_guard guard(ChunkWriteLock(s.key));
    if (s.in_chunk == 0 && s.span.size() == chunk_size_) {
      // Full-chunk replacement needs no read-modify-write even on S3.
      return store_->Put(s.key, s.span);
    }
    // Whole-object-only backend: read, patch, rewrite the chunk. This is
    // the write amplification S3-style stores impose on partial updates.
    Bytes chunk_data;
    auto existing = store_->Get(s.key);
    if (existing.ok()) {
      chunk_data = std::move(*existing);
    } else if (existing.code() != Errc::kNoEnt) {
      return existing.status();
    }
    const std::uint64_t end = s.in_chunk + s.span.size();
    if (chunk_data.size() < end) chunk_data.resize(end, 0);
    std::memcpy(chunk_data.data() + s.in_chunk, s.span.data(), s.span.size());
    return store_->Put(s.key, chunk_data);
  };

  if (slices.size() == 1) return write_slice(slices[0]);

  if (store_->supports_partial_write()) {
    // All slices are single primitive PUT-ranges: one MultiPut batch.
    std::vector<BatchPut> puts;
    puts.reserve(slices.size());
    for (const auto& s : slices) {
      BatchPut p;
      p.key = s.key;
      p.data = s.span;
      p.ranged = true;
      p.offset = s.in_chunk;
      puts.push_back(std::move(p));
    }
    return async_->MultiPut(std::move(puts)).status;
  }

  // Whole-object backend: boundary chunks need read-modify-write, so run the
  // per-chunk closures concurrently instead (RMW GET+PUT pairs overlap too).
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(slices.size());
  for (const auto& s : slices) {
    tasks.push_back([&write_slice, &s] { return write_slice(s); });
  }
  return async_->RunAll(std::move(tasks));
}

Status Prt::WriteChunk(const Uuid& ino, std::uint64_t chunk_index,
                       ByteSpan data) {
  if (data.size() > chunk_size_) {
    return ErrStatus(Errc::kInval, "chunk payload exceeds chunk size");
  }
  return store_->Put(DataKey(ino, chunk_index), data);
}

Result<Bytes> Prt::ReadChunk(const Uuid& ino, std::uint64_t chunk_index) {
  return store_->Get(DataKey(ino, chunk_index));
}

Status Prt::TruncateData(const Uuid& ino, std::uint64_t old_size,
                         std::uint64_t new_size) {
  if (new_size >= old_size) return Status::Ok();  // extension = lazy hole
  const std::uint64_t old_chunks = NumChunksFor(old_size);
  const std::uint64_t new_chunks = NumChunksFor(new_size);
  if (old_chunks > new_chunks) {
    std::vector<std::string> keys;
    keys.reserve(old_chunks - new_chunks);
    for (std::uint64_t c = new_chunks; c < old_chunks; ++c) {
      keys.push_back(DataKey(ino, c));
    }
    if (keys.size() == 1) {
      Status st = store_->Delete(keys[0]);
      if (!st.ok() && st.code() != Errc::kNoEnt) return st;
    } else {
      ARKFS_RETURN_IF_ERROR(
          async_->MultiDelete(std::move(keys)).FirstErrorIgnoringNoEnt());
    }
  }
  // Trim the boundary chunk if the new size cuts into it.
  if (new_chunks > 0 && new_size % chunk_size_ != 0) {
    const std::uint64_t boundary = new_chunks - 1;
    const std::uint64_t keep = new_size - boundary * chunk_size_;
    std::lock_guard guard(ChunkWriteLock(DataKey(ino, boundary)));
    auto chunk = store_->Get(DataKey(ino, boundary));
    if (chunk.ok() && chunk->size() > keep) {
      chunk->resize(keep);
      ARKFS_RETURN_IF_ERROR(store_->Put(DataKey(ino, boundary), *chunk));
    } else if (!chunk.ok() && chunk.code() != Errc::kNoEnt) {
      return chunk.status();
    }
  }
  return Status::Ok();
}

Status Prt::DeleteData(const Uuid& ino, std::uint64_t file_size) {
  const std::uint64_t chunks = NumChunksFor(file_size);
  if (chunks == 0) return Status::Ok();
  if (chunks == 1) {
    Status st = store_->Delete(DataKey(ino, 0));
    if (!st.ok() && st.code() != Errc::kNoEnt) return st;
    return Status::Ok();
  }
  std::vector<std::string> keys;
  keys.reserve(chunks);
  for (std::uint64_t c = 0; c < chunks; ++c) keys.push_back(DataKey(ino, c));
  return async_->MultiDelete(std::move(keys)).FirstErrorIgnoringNoEnt();
}

}  // namespace arkfs
