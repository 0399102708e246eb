#include "exec/store.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "exec/result_io.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <cstdio>
#include <unistd.h>
#define GEARSIM_HAVE_FSYNC 1
#endif

namespace gearsim::exec {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kMagic = "gearsim-store";

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xfU];
    v >>= 4;
  }
  return out;
}

/// Parse a decimal field "name=<digits>" out of `token`; false on any
/// deviation (header fields are machine-written, so strictness is free
/// corruption detection).
bool parse_field(std::string_view token, std::string_view name,
                 std::uint64_t* out) {
  if (token.size() <= name.size() + 1) return false;
  if (token.substr(0, name.size()) != name) return false;
  if (token[name.size()] != '=') return false;
  const std::string_view value = token.substr(name.size() + 1);
  std::uint64_t v = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool parse_hex_field(std::string_view token, std::string_view name,
                     std::uint64_t* out) {
  if (token.size() != name.size() + 1 + 16) return false;
  if (token.substr(0, name.size()) != name) return false;
  if (token[name.size()] != '=') return false;
  std::uint64_t v = 0;
  for (const char c : token.substr(name.size() + 1)) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = v;
  return true;
}

std::string_view next_token(std::string_view line, std::size_t* pos) {
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  const std::size_t start = *pos;
  while (*pos < line.size() && line[*pos] != ' ') ++*pos;
  return line.substr(start, *pos - start);
}

/// The whole file, or nullopt when it cannot be opened.
std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// The `"result"` JSON object of a validated payload stored under
/// exactly `key_text`; nullopt for any other key.
std::optional<std::string_view> result_json(std::string_view payload,
                                            std::string_view key_text) {
  const std::string want =
      "\"key\":\"" + std::string(key_text) + "\",\"result\":";
  const std::size_t at = payload.find(want);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t start = at + want.size();
  const std::size_t end = payload.find_last_of('}');
  if (end == std::string_view::npos || end <= start) return std::nullopt;
  return payload.substr(start, end - start);
}

/// One entry file, decoded.
struct DecodedEntry {
  enum class Status { kOk, kOtherKey, kCorrupt };
  Status status = Status::kCorrupt;
  std::string error;     ///< kCorrupt only.
  std::string key_text;  ///< kOk without a probe key only.
  cluster::RunResult result;
};

/// The one entry decoder: header, length and checksum, then the stored
/// key, then the result.  With a `probe` key, an entry stored under any
/// other key (a 64-bit hash collision or a stale file) is kOtherKey —
/// a miss, never a wrong result — and is told apart before the result
/// is decoded.  Without one (verify, preload) the stored key is located
/// by its markers.
DecodedEntry decode_entry(std::string_view bytes,
                          const std::string* probe = nullptr) {
  DecodedEntry out;
  const StoreValidation v = validate_store_bytes(bytes);
  if (!v.ok) {
    out.error = v.error;
    return out;
  }
  std::string_view key;
  if (probe != nullptr) {
    key = *probe;
  } else {
    constexpr std::string_view key_marker = "\"key\":\"";
    constexpr std::string_view result_marker = "\",\"result\":";
    const std::size_t key_at = v.payload.find(key_marker);
    const std::size_t result_at =
        key_at == std::string::npos ? std::string::npos
                                    : v.payload.find(result_marker, key_at);
    if (key_at == std::string::npos || result_at == std::string::npos) {
      out.error = "payload missing key/result fields";
      return out;
    }
    key = std::string_view(v.payload)
              .substr(key_at + key_marker.size(),
                      result_at - key_at - key_marker.size());
  }
  const auto json = result_json(v.payload, key);
  if (!json.has_value()) {
    if (probe != nullptr) {
      out.status = DecodedEntry::Status::kOtherKey;
    } else {
      out.error = "payload key/result structure mismatch";
    }
    return out;
  }
  try {
    out.result = result_from_json(*json);
  } catch (const std::exception& e) {
    // The checksum passed but the payload does not decode — a
    // hand-edited entry (consistent bytes, wrong content) or a format
    // drift.  Same treatment as corruption: quarantine and recompute.
    out.error = std::string("result decode failed: ") + e.what();
    return out;
  }
  if (probe == nullptr) out.key_text = std::string(key);
  out.status = DecodedEntry::Status::kOk;
  return out;
}

/// Temp files carry this infix; lookups and walks never read them as
/// entries.
constexpr std::string_view kTmpInfix = ".tmp.";

bool is_tmp_name(const std::string& name) {
  return name.find(kTmpInfix) != std::string::npos;
}

/// Unique-per-writer temp name: pid + a process-wide counter, so two
/// processes (or threads) racing on one key never interleave bytes in a
/// shared temp file, and a crashed writer's leftovers are recognizable
/// by the infix.
std::string make_tmp_path(const std::string& final_path) {
  static std::atomic<std::uint64_t> counter{0};
#if defined(GEARSIM_HAVE_FSYNC)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return final_path + std::string(kTmpInfix) + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Write `bytes` to `path` and flush them to stable storage before
/// returning (fsync on POSIX).  Returns false on any failure.
bool write_durable(const std::string& path, std::string_view bytes) {
#if defined(GEARSIM_HAVE_FSYNC)
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = wrote && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  return wrote && flushed && closed;
#else
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out.good();
#endif
}

/// Move a corrupt entry into `<parent>/.quarantine/` (suffixing the name
/// if a previous quarantine of the same file exists).  Returns the new
/// path, or "" when the move failed (the entry is then left in place).
std::string quarantine(const std::string& path) {
  const fs::path source(path);
  const fs::path qdir = source.parent_path() / kQuarantineDir;
  std::error_code ec;
  fs::create_directories(qdir, ec);
  if (ec) return {};
  fs::path target = qdir / source.filename();
  for (int suffix = 1; fs::exists(target, ec); ++suffix) {
    target = qdir / (source.filename().string() + "." +
                     std::to_string(suffix));
  }
  fs::rename(source, target, ec);
  return ec ? std::string{} : target.string();
}

/// A shard directory's eviction ledger (0 when absent or corrupt).
std::uint64_t read_ledger(const fs::path& shard_dir) {
  const auto bytes = read_file(shard_dir / kEvictionLedger);
  if (!bytes.has_value()) return 0;
  std::uint64_t total = 0;
  bool any = false;
  for (const char c : *bytes) {
    if (c == '\n') break;
    if (c < '0' || c > '9') return 0;  // Corrupt ledger reads as zero.
    total = total * 10 + static_cast<std::uint64_t>(c - '0');
    any = true;
  }
  return any ? total : 0;
}

/// Overwrite the ledger with `total` (best-effort; a lost ledger only
/// under-reports lifetime evictions, it never affects correctness).
void write_ledger(const fs::path& shard_dir, std::uint64_t total) {
  std::ofstream out(shard_dir / kEvictionLedger,
                    std::ios::binary | std::ios::trunc);
  if (!out) return;
  out << total << '\n';
}

/// An entry's file name inside its shard directory.
std::string entry_name(const CacheKey& key) { return key.hex() + ".json"; }

/// One directory of a store, as the walk found it.
struct ListedShard {
  std::string name;  ///< "." for the root.
  fs::path dir;
  std::vector<fs::directory_entry> entries;  ///< `.json` entry files.
  std::vector<fs::path> tmp;                 ///< Temp leftovers.
};

/// The one walk of a store: the root plus its one level of shard
/// subdirectories (quarantine excluded — quarantined entries are out of
/// service by definition).  Both layouts reduce to this walk: a flat
/// store simply has no subdirectories.  Root first, then the shards in
/// enumeration order; empty when the root cannot be read.  Without
/// `with_entries` only the temp leftovers are kept, so a caller that needs
/// nothing else holds no memory per entry.
std::vector<ListedShard> list_store(const std::string& dir,
                                    bool with_entries = true) {
  std::vector<ListedShard> shards;
  std::error_code ec;
  const fs::directory_iterator root(dir, ec);
  if (ec) return shards;  // Missing/unreadable store: nothing there.
  shards.push_back(ListedShard{".", fs::path(dir), {}, {}});
  const auto add_file = [with_entries](ListedShard& shard,
                                       const fs::directory_entry& entry) {
    if (is_tmp_name(entry.path().filename().string())) {
      shard.tmp.push_back(entry.path());
    } else if (with_entries && entry.path().extension() == ".json") {
      shard.entries.push_back(entry);
    }
  };
  for (const auto& entry : root) {
    if (entry.is_directory()) {
      const std::string name = entry.path().filename().string();
      if (name != kQuarantineDir) {
        shards.push_back(ListedShard{name, entry.path(), {}, {}});
      }
    } else if (entry.is_regular_file()) {
      add_file(shards.front(), entry);
    }
  }
  for (std::size_t i = 1; i < shards.size(); ++i) {
    const fs::directory_iterator files(shards[i].dir, ec);
    if (ec) continue;
    for (const auto& entry : files) {
      if (entry.is_regular_file()) add_file(shards[i], entry);
    }
  }
  return shards;
}

/// Every entry path of a listing, lexicographically sorted so every pass
/// over a store is deterministic.
std::vector<std::string> sorted_entries(
    const std::vector<ListedShard>& shards) {
  std::vector<fs::path> paths;
  for (const ListedShard& shard : shards) {
    for (const fs::directory_entry& entry : shard.entries) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return {paths.begin(), paths.end()};
}

/// Fully decode every entry the walk lists and collect the temp
/// leftovers: verify's report, and scrub's list of what to repair.
StoreReport check_store(const std::string& dir) {
  StoreReport report;
  for (const ListedShard& shard : list_store(dir)) {
    for (const fs::directory_entry& entry : shard.entries) {
      ++report.scanned;
      const auto bytes = read_file(entry.path());
      if (bytes.has_value() &&
          decode_entry(*bytes).status == DecodedEntry::Status::kOk) {
        ++report.valid;
      } else {
        report.corrupt.push_back(entry.path().string());
      }
    }
    for (const fs::path& tmp : shard.tmp) {
      report.stale_tmp.push_back(tmp.string());
    }
  }
  // Directory iteration order is filesystem-dependent: sort so reports
  // (and quarantine order) are stable for tests and operators alike.
  std::sort(report.corrupt.begin(), report.corrupt.end());
  std::sort(report.stale_tmp.begin(), report.stale_tmp.end());
  return report;
}

}  // namespace

std::string render_store_entry(std::string_view key_text,
                               const cluster::RunResult& result) {
  std::string payload = "{\"format\":" + std::to_string(kKeyFormatVersion) +
                        ",\"key\":\"" + std::string(key_text) +
                        "\",\"result\":" + to_json(result) + "}\n";
  std::string header = std::string(kMagic) + " v" +
                       std::to_string(kStoreFormatVersion) +
                       " len=" + std::to_string(payload.size()) +
                       " fnv1a=" + hex16(util::fnv1a(payload)) + "\n";
  return header + payload;
}

StoreValidation validate_store_bytes(std::string_view bytes) {
  StoreValidation out;
  const std::size_t nl = bytes.find('\n');
  if (nl == std::string_view::npos) {
    out.error = "no header line";
    return out;
  }
  const std::string_view header = bytes.substr(0, nl);
  std::size_t pos = 0;
  if (next_token(header, &pos) != kMagic) {
    out.error = "missing store magic (pre-v3 or foreign file)";
    return out;
  }
  const std::string_view version = next_token(header, &pos);
  if (version != "v" + std::to_string(kStoreFormatVersion)) {
    out.error = "unsupported store version: " + std::string(version);
    return out;
  }
  std::uint64_t len = 0;
  if (!parse_field(next_token(header, &pos), "len", &len)) {
    out.error = "malformed len field";
    return out;
  }
  std::uint64_t checksum = 0;
  if (!parse_hex_field(next_token(header, &pos), "fnv1a", &checksum)) {
    out.error = "malformed fnv1a field";
    return out;
  }
  const std::string_view payload = bytes.substr(nl + 1);
  if (payload.size() != len) {
    out.error = "payload length " + std::to_string(payload.size()) +
                " != header len " + std::to_string(len) +
                " (truncated or padded write)";
    return out;
  }
  if (util::fnv1a(payload) != checksum) {
    out.error = "payload checksum mismatch (bit rot or edit)";
    return out;
  }
  out.ok = true;
  out.payload = std::string(payload);
  return out;
}

std::string StoreReport::to_string() const {
  std::ostringstream os;
  os << "scanned " << scanned << " entries: " << valid << " valid, "
     << corrupt.size() << " corrupt, " << stale_tmp.size()
     << " stale temp file(s)\n";
  for (const std::string& path : corrupt) {
    os << "  corrupt: " << path << '\n';
  }
  for (const std::string& path : stale_tmp) {
    os << "  stale tmp: " << path << '\n';
  }
  if (quarantined > 0 || removed_tmp > 0) {
    os << "scrubbed: " << quarantined << " quarantined to " << kQuarantineDir
       << "/, " << removed_tmp << " temp file(s) removed\n";
  }
  return os.str();
}

StoreReport verify_store(const std::string& dir) { return check_store(dir); }

StoreReport scrub_store(const std::string& dir) {
  StoreReport report = check_store(dir);
  for (const std::string& path : report.corrupt) {
    if (!quarantine(path).empty()) ++report.quarantined;
  }
  std::error_code ec;
  for (const std::string& path : report.stale_tmp) {
    if (fs::remove(path, ec) && !ec) ++report.removed_tmp;
  }
  return report;
}

std::uint64_t StoreStats::total_entries() const {
  std::uint64_t n = 0;
  for (const ShardStats& s : shards) n += s.entries;
  return n;
}

std::uint64_t StoreStats::total_bytes() const {
  std::uint64_t n = 0;
  for (const ShardStats& s : shards) n += s.bytes;
  return n;
}

std::uint64_t StoreStats::total_quarantined() const {
  std::uint64_t n = 0;
  for (const ShardStats& s : shards) n += s.quarantined;
  return n;
}

std::uint64_t StoreStats::total_evictions() const {
  std::uint64_t n = 0;
  for (const ShardStats& s : shards) n += s.evictions;
  return n;
}

StoreStats store_stats(const std::string& dir) {
  StoreStats stats;
  for (const ListedShard& listed : list_store(dir)) {
    ShardStats shard;
    shard.name = listed.name;
    shard.entries = listed.entries.size();
    for (const fs::directory_entry& entry : listed.entries) {
      std::error_code size_ec;
      const std::uintmax_t size = entry.file_size(size_ec);
      if (!size_ec) shard.bytes += size;
    }
    std::error_code ec;
    const fs::directory_iterator qit(listed.dir / kQuarantineDir, ec);
    if (!ec) {
      for (const auto& q : qit) {
        if (q.is_regular_file()) ++shard.quarantined;
      }
    }
    shard.evictions = read_ledger(listed.dir);
    // The root row is elided when empty (a purely-sharded store has no
    // flat entries); shard directories always appear — an all-evicted
    // shard with only a ledger is still worth reporting.
    if (shard.entries > 0 || shard.quarantined > 0 || shard.evictions > 0 ||
        shard.name != ".") {
      stats.shards.push_back(std::move(shard));
    }
  }
  std::sort(stats.shards.begin(), stats.shards.end(),
            [](const ShardStats& a, const ShardStats& b) {
              return a.name < b.name;
            });
  return stats;
}

// ---- DiskStore --------------------------------------------------------------

DiskStore::DiskStore(Options options, CacheStats& stats)
    : options_(std::move(options)), stats_(stats) {
  // Only budget seeding reads the entry list.
  const std::vector<ListedShard> shards =
      list_store(options_.dir, options_.shard_entry_budget > 0);
  // Hygiene: a writer killed between write and rename leaves a temp
  // file behind.  Lookups never read temp names, so these can only
  // waste space — sweep them now.
  for (const ListedShard& shard : shards) {
    for (const fs::path& tmp : shard.tmp) {
      std::error_code ec;
      if (fs::remove(tmp, ec) && !ec) ++stats_.stale_tmp_swept;
    }
  }
  if (options_.shard_entry_budget == 0) return;
  // Deterministic seeding: a lexicographic scan assigns ascending touch
  // clocks, so which entries a later overflow evicts depends only on the
  // store's contents (oldest-by-name first), never on directory
  // enumeration order.
  const fs::path root(options_.dir);
  for (const std::string& entry : sorted_entries(shards)) {
    const fs::path path(entry);
    const fs::path parent = path.parent_path();
    ShardState& state =
        shards_[parent == root ? "." : parent.filename().string()];
    if (state.touch.empty()) state.evictions = read_ledger(parent);
    state.touch[path.filename().string()] = ++touch_clock_;
  }
}

std::string DiskStore::shard_name(const CacheKey& key) const {
  if (options_.shard_digits == 0) return ".";
  return key.hex().substr(0, static_cast<std::size_t>(options_.shard_digits));
}

std::string DiskStore::shard_dir(const std::string& shard) const {
  return shard == "." ? options_.dir : options_.dir + "/" + shard;
}

void DiskStore::touch(const CacheKey& key) {
  if (options_.shard_entry_budget == 0) return;
  const std::string shard = shard_name(key);
  const auto [it, inserted] = shards_.try_emplace(shard);
  if (inserted) {
    // First sighting of this shard since opening (another process may
    // have evicted here before): pick up the persisted total.
    it->second.evictions = read_ledger(shard_dir(shard));
  }
  it->second.touch[entry_name(key)] = ++touch_clock_;
}

void DiskStore::enforce_budget(const CacheKey& key) {
  if (options_.shard_entry_budget == 0) return;
  const std::string shard = shard_name(key);
  ShardState& state = shards_[shard];
  const std::string dir = shard_dir(shard);
  bool evicted = false;
  while (state.touch.size() > options_.shard_entry_budget) {
    auto victim = state.touch.begin();
    for (auto it = state.touch.begin(); it != state.touch.end(); ++it) {
      if (it->second < victim->second) victim = it;
    }
    std::error_code ec;
    fs::remove(dir + "/" + victim->first, ec);
    state.touch.erase(victim);
    ++state.evictions;
    ++stats_.disk_evictions;
    evicted = true;
  }
  if (evicted) write_ledger(dir, state.evictions);
}

void DiskStore::note_corrupt(const std::string& path,
                             const std::string& reason) {
  ++stats_.corrupt;
  const std::string quarantined_to = quarantine(path);
  if (!quarantined_to.empty()) ++stats_.quarantined;
  // Warn once per offending path: a sweep probing a corrupt entry
  // thousands of times must not flood the log.
  if (warned_paths_.insert(path).second) {
    GEARSIM_WARN("result store: corrupt entry "
                 << path << " (" << reason << ") — "
                 << (quarantined_to.empty()
                         ? std::string("quarantine failed, left in place")
                         : "quarantined to " + quarantined_to)
                 << "; treating as a miss");
  }
}

std::optional<cluster::RunResult> DiskStore::read(const CacheKey& key) {
  const std::string path = shard_dir(shard_name(key)) + "/" + entry_name(key);
  const auto bytes = read_file(path);
  if (!bytes.has_value()) return std::nullopt;  // Absent: a plain miss.
  DecodedEntry entry = decode_entry(*bytes, &key.text);
  switch (entry.status) {
    case DecodedEntry::Status::kOtherKey:
      return std::nullopt;
    case DecodedEntry::Status::kCorrupt:
      note_corrupt(path, entry.error);
      return std::nullopt;
    case DecodedEntry::Status::kOk:
      break;
  }
  // Renew the entry's budget standing: a hot entry must not be the next
  // eviction.
  touch(key);
  return std::move(entry.result);
}

void DiskStore::write(const CacheKey& key, const cluster::RunResult& result) {
  const std::string dir = shard_dir(shard_name(key));
  std::error_code ec;
  fs::create_directories(dir, ec);
  // Write to a unique temp name, fsync, then rename: a reader (or a
  // crash) can never observe a half-written entry under the final name,
  // and a torn temp write is caught by the header on read.
  const std::string final_path = dir + "/" + entry_name(key);
  const std::string tmp_path = make_tmp_path(final_path);
  std::string bytes = render_store_entry(key.text, result);
  // Failpoint: simulate a torn write (power loss mid-write).  arg > 0
  // keeps that many bytes, otherwise half the entry survives.
  if (const auto arg = util::failpoint("exec.store.write.truncate")) {
    const std::size_t keep =
        *arg > 0 ? std::min(bytes.size(), static_cast<std::size_t>(*arg))
                 : bytes.size() / 2;
    bytes.resize(keep);
  }
  if (!write_durable(tmp_path, bytes)) {
    fs::remove(tmp_path, ec);
    return;  // The disk tier is best-effort.
  }
  // Failpoint: simulate a crash between write and rename — the entry
  // never appears, only a stale temp file (swept on the next start).
  if (util::failpoint("exec.store.rename.fail")) return;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return;
  }
  // The entry landed: it is now the shard's most-recent file, and the
  // shard may have overflowed its budget.
  touch(key);
  enforce_budget(key);
}

std::vector<std::string> DiskStore::sorted_entry_paths() const {
  return sorted_entries(list_store(options_.dir));
}

std::optional<cluster::RunResult> DiskStore::load(const std::string& path,
                                                  std::string& key_text) {
  const auto bytes = read_file(path);
  if (!bytes.has_value()) {
    note_corrupt(path, "unreadable file");
    return std::nullopt;
  }
  DecodedEntry entry = decode_entry(*bytes);
  if (entry.status != DecodedEntry::Status::kOk) {
    note_corrupt(path, entry.error);
    return std::nullopt;
  }
  key_text = std::move(entry.key_text);
  return std::move(entry.result);
}

}  // namespace gearsim::exec
