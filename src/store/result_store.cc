#include "store/result_store.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "journal/json.hh"

namespace uvmasync
{

namespace
{

constexpr const char *storeMagic = "uvmasync-store";
constexpr const char *shardMagic = "uvmasync-shard";

std::string
metaPath(const std::string &dir)
{
    return dir + "/meta.json";
}

std::string
shardDir(const std::string &dir)
{
    return dir + "/shards";
}

std::string
shardPath(const std::string &dir, std::size_t shard)
{
    return shardDir(dir) + "/s" + hexU64(shard).substr(14);
}

/** "sXX" (two lowercase hex digits, as shardPath writes) -> shard. */
bool
shardIndexFromName(const std::string &name, std::uint64_t &shard)
{
    return name.size() == 3 && name[0] == 's' &&
           parseHexU64(std::string(14, '0') + name.substr(1), shard);
}

struct MetaData
{
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> fingerprints;
    std::vector<std::uint64_t> lastUse =
        std::vector<std::uint64_t>(ResultStore::shardCount, 0);
    std::uint64_t lifetimeLookups = 0;
    std::uint64_t lifetimeHits = 0;
    std::uint64_t lifetimeStored = 0;
    std::uint64_t lastRunLookups = 0;
    std::uint64_t lastRunHits = 0;
};

std::string
metaLine(const MetaData &meta)
{
    JsonWriter w;
    w.beginObject();
    w.key("store").value(storeMagic);
    w.key("version").value(
        static_cast<std::uint64_t>(ResultStore::formatVersion));
    w.key("clock").value(meta.clock);
    w.key("fingerprints").beginArray();
    for (std::uint64_t fp : meta.fingerprints)
        w.value(hexU64(fp));
    w.endArray();
    w.key("last_use").beginArray();
    for (std::uint64_t use : meta.lastUse)
        w.value(use);
    w.endArray();
    w.key("lookups").value(meta.lifetimeLookups);
    w.key("hits").value(meta.lifetimeHits);
    w.key("stored").value(meta.lifetimeStored);
    w.key("last_run_lookups").value(meta.lastRunLookups);
    w.key("last_run_hits").value(meta.lastRunHits);
    w.endObject();
    return w.str();
}

bool
parseMetaLine(const std::string &line, MetaData &out,
              std::string &error)
{
    JsonValue v;
    if (!parseJson(line, v, error))
        return false;
    const JsonValue *magic = v.find("store");
    if (!v.isObject() || !magic || !magic->isString() ||
        magic->text != storeMagic) {
        error = "not a result-store meta file";
        return false;
    }
    const JsonValue *version = v.find("version");
    std::uint64_t ver = 0;
    if (!version || !version->asUint(ver)) {
        error = "missing/invalid 'version'";
        return false;
    }
    if (ver != static_cast<std::uint64_t>(ResultStore::formatVersion)) {
        error = strfmt("format version %llu, this build reads %d",
                       static_cast<unsigned long long>(ver),
                       ResultStore::formatVersion);
        return false;
    }
    const JsonValue *clock = v.find("clock");
    const JsonValue *fps = v.find("fingerprints");
    const JsonValue *lastUse = v.find("last_use");
    if (!clock || !clock->asUint(out.clock) || !fps ||
        !fps->isArray() || !lastUse || !lastUse->isArray() ||
        lastUse->items.size() != ResultStore::shardCount) {
        error = "missing/invalid 'clock'/'fingerprints'/'last_use'";
        return false;
    }
    out.fingerprints.clear();
    for (const JsonValue &item : fps->items) {
        std::uint64_t fp = 0;
        if (!item.isString() || !parseHexU64(item.text, fp)) {
            error = "invalid fingerprint entry";
            return false;
        }
        out.fingerprints.push_back(fp);
    }
    out.lastUse.clear();
    out.lastUse.reserve(ResultStore::shardCount);
    for (const JsonValue &item : lastUse->items) {
        std::uint64_t use = 0;
        if (!item.asUint(use)) {
            error = "invalid 'last_use' entry";
            return false;
        }
        out.lastUse.push_back(use);
    }
    const JsonValue *lookups = v.find("lookups");
    const JsonValue *hits = v.find("hits");
    const JsonValue *stored = v.find("stored");
    const JsonValue *lrLookups = v.find("last_run_lookups");
    const JsonValue *lrHits = v.find("last_run_hits");
    if (!lookups || !lookups->asUint(out.lifetimeLookups) || !hits ||
        !hits->asUint(out.lifetimeHits) || !stored ||
        !stored->asUint(out.lifetimeStored) || !lrLookups ||
        !lrLookups->asUint(out.lastRunLookups) || !lrHits ||
        !lrHits->asUint(out.lastRunHits)) {
        error = "missing/invalid counters";
        return false;
    }
    return true;
}

/**
 * Load meta.json. On failure @p meta is the empty default and
 * @p error says why (missing, empty, not a store, other version).
 */
bool
readMeta(IoEnv &env, const std::string &dir, MetaData &meta,
         std::string &error)
{
    std::string contents;
    bool ok = false;
    if (!env.readFile(metaPath(dir), contents).ok)
        error = "missing meta.json";
    else if (contents.empty())
        error = "empty meta.json";
    else
        ok = parseMetaLine(contents, meta, error);
    if (!ok)
        meta = MetaData{};
    return ok;
}

/** Atomic meta rewrite: temp file + rename. */
IoStatus
tryWriteMetaFile(IoEnv &env, const std::string &dir,
                 const MetaData &meta)
{
    return env.writeFileAtomic(metaPath(dir), metaLine(meta) + "\n");
}

void
writeMetaFile(IoEnv &env, const std::string &dir,
              const MetaData &meta)
{
    IoStatus st = tryWriteMetaFile(env, dir, meta);
    if (!st.ok)
        fatal("store: cannot write '%s': %s",
              metaPath(dir).c_str(), st.text().c_str());
}

/**
 * Rewrite every segment keeping the intact records whose fingerprint
 * @p keep accepts; a segment left without records is removed and its
 * LRU stamp cleared. Kept records keep their exact bytes. Counts the
 * records dropped (rejected, corrupt, under a bad header, or torn)
 * and the bytes read into @p gc; returns each shard's bytes after.
 */
std::vector<std::uint64_t>
rewriteSegments(IoEnv &env, const std::string &dir, MetaData &meta,
                const std::function<bool(std::uint64_t)> &keep,
                StoreGcResult &gc)
{
    std::vector<std::uint64_t> bytesAfter(ResultStore::shardCount, 0);
    for (const auto &[shard, path] : storeSegmentFiles(dir, env)) {
        std::string contents;
        if (!env.readFile(path, contents).ok)
            continue;
        gc.bytesBefore += contents.size();
        StoreSegment seg = scanStoreSegment(contents, shard);
        std::string rewritten =
            frameRecord(storeSegmentHeaderLine(shard));
        std::size_t kept = 0;
        for (const StoreSegment::Entry &e : seg.entries) {
            if (!keep(e.fingerprint))
                continue;
            rewritten += frameRecord(seg.log.records[e.line].payload);
            ++kept;
        }
        gc.droppedRecords += seg.corrupt + (seg.entries.size() - kept) +
                             (seg.log.tornBytes > 0 ? 1 : 0);
        if (kept == 0) {
            env.removeFile(path);
            meta.lastUse[shard] = 0;
            continue;
        }
        IoStatus st = env.writeFileAtomic(path, rewritten);
        if (!st.ok)
            fatal("store: cannot replace '%s': %s", path.c_str(),
                  st.text().c_str());
        bytesAfter[shard] = rewritten.size();
    }
    return bytesAfter;
}

/**
 * The store's one LRU policy, shared by inserts and `store gc`: while
 * the segments' bytes exceed @p maxBytes (0 = no budget), evict the
 * non-empty segment with the lowest last-use stamp, the lowest shard
 * among equal stamps, never @p keep. @p evict removes the segment and
 * zeroes its bytes; its stamp is cleared here.
 */
template <typename BytesOf, typename Evict>
void
evictLru(std::uint64_t maxBytes, BytesOf bytesOf, std::uint64_t *lastUse,
         std::size_t keep, Evict evict)
{
    constexpr std::size_t none = ResultStore::shardCount;
    while (maxBytes > 0) {
        std::uint64_t total = 0;
        std::size_t victim = none;
        for (std::size_t s = 0; s < none; ++s) {
            total += bytesOf(s);
            if (s != keep && bytesOf(s) > 0 &&
                (victim == none || lastUse[s] < lastUse[victim]))
                victim = s;
        }
        if (total <= maxBytes || victim == none)
            return;
        evict(victim);
        lastUse[victim] = 0;
    }
}

} // namespace

std::string
storeSegmentHeaderLine(std::size_t shard)
{
    JsonWriter w;
    w.beginObject();
    w.key("store").value(shardMagic);
    w.key("version").value(
        static_cast<std::uint64_t>(ResultStore::formatVersion));
    w.key("shard").value(static_cast<std::uint64_t>(shard));
    w.endObject();
    return w.str();
}

std::string
storeRecordLine(std::uint64_t fingerprint, std::uint64_t key,
                const ExperimentResult &result)
{
    JsonWriter w;
    w.beginObject();
    w.key("fp").value(hexU64(fingerprint));
    w.key("key").value(hexU64(key));
    w.key("result");
    writeResultJson(w, result);
    w.endObject();
    return w.str();
}

bool
parseStoreRecord(const std::string &line, std::uint64_t &fingerprint,
                 std::uint64_t &key, ExperimentResult &result,
                 std::string &error)
{
    JsonValue v;
    if (!parseJson(line, v, error))
        return false;
    const JsonValue *fp = v.find("fp");
    const JsonValue *k = v.find("key");
    const JsonValue *res = v.find("result");
    if (!fp || !fp->isString() || !parseHexU64(fp->text, fingerprint) ||
        !k || !k->isString() || !parseHexU64(k->text, key) || !res) {
        error = "missing/invalid 'fp'/'key'/'result'";
        return false;
    }
    if (!readResultJson(*res, result)) {
        error = "missing/invalid 'result'";
        return false;
    }
    return true;
}

std::vector<std::pair<std::size_t, std::string>>
storeSegmentFiles(const std::string &dir, IoEnv &env)
{
    // One listDir instead of 256 per-path probes: fewer syscalls, and
    // the fault enumerator's op count stays proportional to real work.
    std::vector<std::pair<std::size_t, std::string>> files;
    std::vector<std::string> names;
    if (!env.listDir(shardDir(dir), names).ok)
        return files; // no shards directory = empty store
    for (const std::string &name : names) {
        std::uint64_t shard = 0;
        if (shardIndexFromName(name, shard))
            files.emplace_back(shard, shardDir(dir) + "/" + name);
    }
    return files;
}

StoreSegment
scanStoreSegment(const std::string &contents, std::size_t shard)
{
    StoreSegment seg;
    seg.log = scanRecordLog(contents);
    const std::vector<LogRecord> &records = seg.log.records;
    seg.headerOk = !records.empty() && records[0].ok() &&
                   records[0].payload == storeSegmentHeaderLine(shard);
    if (!seg.headerOk) {
        seg.corrupt = records.size();
        return seg;
    }
    for (std::size_t i = 1; i < records.size(); ++i) {
        StoreSegment::Entry e;
        e.line = i;
        std::string error = records[i].error;
        if (records[i].ok())
            parseStoreRecord(records[i].payload, e.fingerprint, e.key,
                             e.result, error);
        if (error.empty()) {
            seg.entries.push_back(std::move(e));
        } else if (seg.corrupt++ == 0) {
            seg.firstError =
                "line " + std::to_string(i + 1) + ": " + error;
        }
    }
    return seg;
}

std::size_t
ResultStore::shardOf(std::uint64_t key) const
{
    // Config hashes are splitmix64-finalized, so the low byte is
    // already uniform; the shard choice must not depend on the
    // fingerprint or the CLI maintenance ops could not place records.
    return static_cast<std::size_t>(key & 0xff);
}

std::unique_ptr<ResultStore>
ResultStore::open(const std::string &dir, std::uint64_t fingerprint,
                  const StoreOptions &opt, IoEnv &env)
{
    std::unique_ptr<ResultStore> store(new ResultStore());
    store->dir_ = dir;
    store->env_ = &env;
    store->fingerprint_ = fingerprint;
    store->opt_ = opt;

    if (!opt.readonly) {
        IoStatus mk = env.makeDir(dir);
        if (mk.ok)
            mk = env.makeDir(shardDir(dir));
        if (!mk.ok)
            fatal("store: cannot create store directory '%s': %s",
                  dir.c_str(), mk.text().c_str());
    }

    bool haveMeta = env.exists(metaPath(dir));
    if (!haveMeta && opt.readonly)
        fatal("store: '%s' is not a result store (no meta.json); "
              "open it writable once to initialise it",
              dir.c_str());

    MetaData meta;
    std::string metaError;
    if (haveMeta && !readMeta(env, dir, meta, metaError))
        fatal("store: '%s' is not a usable result store (%s); "
              "delete the directory or run `uvmasync store "
              "invalidate --store %s` to start fresh",
              metaPath(dir).c_str(), metaError.c_str(), dir.c_str());

    store->clock_ = meta.clock;
    store->knownFingerprints_ = meta.fingerprints;
    for (std::size_t s = 0; s < shardCount; ++s)
        store->lastUse_[s] = meta.lastUse[s];
    store->stats_.lifetimeLookups = meta.lifetimeLookups;
    store->stats_.lifetimeHits = meta.lifetimeHits;
    store->stats_.lifetimeStored = meta.lifetimeStored;

    bool known =
        std::binary_search(store->knownFingerprints_.begin(),
                           store->knownFingerprints_.end(),
                           fingerprint);
    if (opt.readonly && !known)
        fatal("store: '%s' has no entries for the current "
              "model-semantics fingerprint %s — the simulator "
              "semantics (code version or system config) changed "
              "since the store was written. Open it writable (drop "
              "--store-readonly) to repopulate, or run `uvmasync "
              "store invalidate --store %s` to drop the stale "
              "entries.",
              dir.c_str(), hexU64(fingerprint).c_str(), dir.c_str());
    if (!known) {
        store->knownFingerprints_.insert(
            std::upper_bound(store->knownFingerprints_.begin(),
                             store->knownFingerprints_.end(),
                             fingerprint),
            fingerprint);
    }

    for (const auto &entry : storeSegmentFiles(dir, env)) {
        if (entry.first < shardCount)
            store->loadShard(entry.first, entry.second);
    }
    store->loaded_ = true;
    return store;
}

void
ResultStore::loadShard(std::size_t shard, const std::string &path)
{
    std::string contents;
    if (!env_->readFile(path, contents).ok)
        return; // absent segment = empty shard
    StoreSegment seg = scanStoreSegment(contents, shard);
    // A record that fails its checksum or does not parse is counted
    // and treated as a miss: it is never served.
    stats_.corruptRecords += seg.corrupt;
    if (!seg.headerOk) {
        // Unusable header: drop the whole segment. Writable stores
        // rewrite it from scratch on the next insert.
        if (!opt_.readonly)
            env_->removeFile(path);
        return;
    }
    Shard &sh = shards_[shard];
    for (StoreSegment::Entry &e : seg.entries)
        sh.entries.emplace(std::make_pair(e.key, e.fingerprint),
                           std::move(e.result));
    sh.bytes = contents.size() - seg.log.tornBytes;
    if (seg.log.tornBytes > 0) {
        ++stats_.tornTails;
        if (!opt_.readonly) {
            // Drop the torn append so the segment is clean again.
            IoStatus st = env_->truncateFile(path, sh.bytes);
            if (!st.ok)
                warn("store: cannot truncate torn tail of '%s': %s",
                     path.c_str(), st.text().c_str());
        }
    }
}

ResultStore::~ResultStore()
{
    // Best-effort: a destructor must never fatal (it may run during
    // exception unwinding, and a cache that cannot persist its meta
    // has lost recency/stats, not results). Skipped when open()
    // never completed — there is nothing meaningful to persist.
    // Shard files close silently through their IoFile destructors.
    if (!opt_.readonly && loaded_)
        persistMeta();
}

void
ResultStore::persistMeta()
{
    MetaData meta;
    meta.clock = clock_;
    meta.fingerprints = knownFingerprints_;
    meta.lastUse.assign(lastUse_.begin(), lastUse_.end());
    meta.lifetimeLookups = stats_.lifetimeLookups;
    meta.lifetimeHits = stats_.lifetimeHits;
    meta.lifetimeStored = stats_.lifetimeStored;
    meta.lastRunLookups = lastRunLookups_;
    meta.lastRunHits = lastRunHits_;
    IoStatus st = tryWriteMetaFile(*env_, dir_, meta);
    if (!st.ok)
        warn("store: cannot persist '%s' (%s); hit-rate history and "
             "eviction recency were lost, stored results are intact",
             metaPath(dir_).c_str(), st.text().c_str());
}

void
ResultStore::touch(std::size_t shard)
{
    lastUse_[shard] = ++clock_;
}

bool
ResultStore::lookup(std::uint64_t key, ExperimentResult &out)
{
    ++stats_.lookups;
    ++stats_.lifetimeLookups;
    ++lastRunLookups_;
    Shard &sh = shards_[shardOf(key)];
    auto it = sh.entries.find(std::make_pair(key, fingerprint_));
    if (it != sh.entries.end()) {
        out = it->second;
        ++stats_.hits;
        ++stats_.lifetimeHits;
        ++lastRunHits_;
        touch(shardOf(key));
        return true;
    }
    // Same question answered by a different simulator: the miss is a
    // fingerprint invalidation, not a never-seen point.
    auto lo = sh.entries.lower_bound(std::make_pair(key, 0));
    if (lo != sh.entries.end() && lo->first.first == key)
        ++stats_.staleMisses;
    return false;
}

void
ResultStore::noteWriteError(std::size_t shard, const IoStatus &st)
{
    // A hard append error (disk full, EIO) disables the shard for
    // the rest of the session: the cache degrades to pass-through
    // for these keys instead of corrupting the segment tail with
    // repeated partial appends. The record log has already cut the
    // file back to its last intact record, so it still loads clean.
    Shard &sh = shards_[shard];
    ++stats_.writeErrors;
    sh.bytes = sh.log->bytes();
    warn("store: write to segment '%s' failed (%s); shard disabled "
         "for this session, results for it will not be cached",
         shardPath(dir_, shard).c_str(), st.text().c_str());
}

void
ResultStore::insert(std::uint64_t key, const ExperimentResult &result)
{
    if (opt_.readonly)
        return;
    std::size_t shard = shardOf(key);
    Shard &sh = shards_[shard];
    if (sh.log && sh.log->failed())
        return; // hard error earlier: decline further offers
    auto mapKey = std::make_pair(key, fingerprint_);
    if (sh.entries.count(mapKey))
        return; // dedup keeps segment bytes deterministic

    // No fsync: the store is a cache, not the crash-safety contract
    // (that is the journal); a torn tail costs one re-simulation.
    IoStatus st;
    if (!sh.log) {
        sh.log.emplace(*env_, shardPath(dir_, shard),
                       RecordAppender::Durability::Flush);
        st = sh.log->open(sh.bytes);
        if (st.ok && sh.bytes == 0)
            st = sh.log->append(storeSegmentHeaderLine(shard));
    }
    if (st.ok)
        st = sh.log->append(storeRecordLine(fingerprint_, key, result));
    if (!st.ok) {
        noteWriteError(shard, st);
        return;
    }
    sh.bytes = sh.log->bytes();
    sh.entries.emplace(mapKey, result);
    ++stats_.stored;
    ++stats_.lifetimeStored;
    touch(shard);
    // The budget never evicts the shard just appended to, so it
    // cannot starve fresh work.
    evictLru(
        opt_.maxBytes, [&](std::size_t s) { return shards_[s].bytes; },
        lastUse_.data(), shard, [&](std::size_t victim) {
            Shard &evicted = shards_[victim];
            if (evicted.log && !evicted.log->failed())
                evicted.log.reset(); // a failed shard stays disabled
            env_->removeFile(shardPath(dir_, victim));
            ++stats_.evictedSegments;
            stats_.evictedBytes += evicted.bytes;
            evicted.bytes = 0;
            evicted.entries.clear();
        });
}

StorePointCache::StorePointCache(
    ResultStore &store, const std::vector<ExperimentPoint> &points)
    : store_(store), points_(points)
{
    keys_.reserve(points.size());
    for (const ExperimentPoint &point : points)
        keys_.push_back(pointConfigHash(point));
}

bool
StorePointCache::lookup(std::size_t index, PointOutcome &out)
{
    UVMASYNC_ASSERT(index < points_.size(),
                    "point index out of range");
    const ExperimentPoint &point = points_[index];
    if (point.opts.trace)
        return false; // traces are not serialized; re-simulate
    ExperimentResult result;
    if (!store_.lookup(keys_[index], result))
        return false;
    if (result.workload != point.workload ||
        result.mode != point.mode || result.size != point.opts.size) {
        // Config-hash collision or corruption the checksum missed:
        // never serve an entry whose identity disagrees.
        store_.noteCorrupt();
        return false;
    }
    out = PointOutcome{};
    out.ok = true;
    out.status = PointStatus::Ok;
    out.attempts = 1;
    out.result = std::move(result);
    return true;
}

void
StorePointCache::store(std::size_t index, const PointOutcome &out)
{
    UVMASYNC_ASSERT(index < points_.size(),
                    "point index out of range");
    if (!out.ok || points_[index].opts.trace)
        return;
    store_.insert(keys_[index], out.result);
}

StoreSurvey
surveyStore(const std::string &dir, IoEnv &env)
{
    if (!env.exists(dir))
        fatal("store: '%s' does not exist", dir.c_str());
    StoreSurvey survey;
    MetaData meta;
    survey.metaOk = readMeta(env, dir, meta, survey.metaError);
    survey.clock = meta.clock;
    survey.fingerprints = meta.fingerprints;
    survey.lifetimeLookups = meta.lifetimeLookups;
    survey.lifetimeHits = meta.lifetimeHits;
    survey.lifetimeStored = meta.lifetimeStored;
    survey.lastRunLookups = meta.lastRunLookups;
    survey.lastRunHits = meta.lastRunHits;

    for (const auto &[shard, path] : storeSegmentFiles(dir, env)) {
        std::string contents;
        if (!env.readFile(path, contents).ok)
            continue;
        ++survey.segments;
        survey.bytes += contents.size();
        StoreSegment seg = scanStoreSegment(contents, shard);
        if (seg.log.tornBytes > 0)
            ++survey.tornTails;
        if (!seg.headerOk)
            ++survey.badHeaders;
        survey.corruptRecords += seg.corrupt;
        survey.records += seg.entries.size();
    }
    return survey;
}

bool
checkStoreMeta(const std::string &dir, std::string &error, IoEnv &env)
{
    if (!env.exists(dir))
        fatal("store: '%s' does not exist", dir.c_str());
    MetaData meta;
    return readMeta(env, dir, meta, error);
}

StoreGcResult
gcStore(const std::string &dir, std::uint64_t maxBytes, IoEnv &env)
{
    if (!env.exists(dir))
        fatal("store: '%s' does not exist", dir.c_str());
    StoreGcResult gc;
    MetaData meta;
    std::string error;
    readMeta(env, dir, meta, error); // an unusable meta is rebuilt

    // Pass 1: rewrite each segment keeping only intact records.
    std::vector<std::uint64_t> shardBytes = rewriteSegments(
        env, dir, meta, [](std::uint64_t) { return true; }, gc);

    // Pass 2: enforce the byte budget by meta-clock LRU.
    evictLru(
        maxBytes, [&](std::size_t s) { return shardBytes[s]; },
        meta.lastUse.data(), ResultStore::shardCount,
        [&](std::size_t victim) {
            env.removeFile(shardPath(dir, victim));
            ++gc.evictedSegments;
            gc.evictedBytes += shardBytes[victim];
            shardBytes[victim] = 0;
        });
    for (std::uint64_t b : shardBytes)
        gc.bytesAfter += b;
    writeMetaFile(env, dir, meta);
    return gc;
}

std::size_t
invalidateStore(const std::string &dir,
                const std::uint64_t *fingerprint, IoEnv &env)
{
    if (!env.exists(dir))
        fatal("store: '%s' does not exist", dir.c_str());
    MetaData meta;
    std::string error;
    readMeta(env, dir, meta, error);

    StoreGcResult gc;
    rewriteSegments(
        env, dir, meta,
        [&](std::uint64_t fp) { return fingerprint && fp != *fingerprint; },
        gc);

    if (fingerprint) {
        meta.fingerprints.erase(
            std::remove(meta.fingerprints.begin(),
                        meta.fingerprints.end(), *fingerprint),
            meta.fingerprints.end());
    } else {
        meta = MetaData{};
    }
    writeMetaFile(env, dir, meta);
    return gc.droppedRecords;
}

TextTable
storeStatsTable(const StoreStats &stats)
{
    TextTable table({"counter", "value"});
    table.setAlign(0, TextTable::Align::Left);
    auto row = [&](const char *name, std::uint64_t value) {
        table.addRow({name, std::to_string(value)});
    };
    row("lookups", stats.lookups);
    row("hits", stats.hits);
    row("misses", stats.lookups - stats.hits);
    table.addRow({"hit_rate",
                  stats.lookups
                      ? fmtPercent(static_cast<double>(stats.hits) /
                                   static_cast<double>(stats.lookups))
                      : "-"});
    row("stored", stats.stored);
    row("stale_misses", stats.staleMisses);
    row("corrupt_records", stats.corruptRecords);
    row("torn_tails", stats.tornTails);
    row("write_errors", stats.writeErrors);
    row("evicted_segments", stats.evictedSegments);
    row("evicted_bytes", stats.evictedBytes);
    return table;
}

TextTable
storeSurveyTable(const StoreSurvey &survey)
{
    TextTable table({"counter", "value"});
    table.setAlign(0, TextTable::Align::Left);
    table.setAlign(1, TextTable::Align::Left);
    auto row = [&](const char *name, const std::string &value) {
        table.addRow({name, value});
    };
    row("meta", survey.metaOk ? "ok" : survey.metaError);
    row("fingerprints",
        std::to_string(survey.fingerprints.size()));
    row("segments", std::to_string(survey.segments));
    row("records", std::to_string(survey.records));
    row("bytes", std::to_string(survey.bytes));
    row("corrupt_records", std::to_string(survey.corruptRecords));
    row("torn_tails", std::to_string(survey.tornTails));
    row("bad_headers", std::to_string(survey.badHeaders));
    row("lifetime_lookups", std::to_string(survey.lifetimeLookups));
    row("lifetime_hits", std::to_string(survey.lifetimeHits));
    row("lifetime_stored", std::to_string(survey.lifetimeStored));
    row("last_run_lookups", std::to_string(survey.lastRunLookups));
    row("last_run_hits", std::to_string(survey.lastRunHits));
    row("last_run_hit_rate",
        survey.lastRunLookups
            ? fmtPercent(static_cast<double>(survey.lastRunHits) /
                         static_cast<double>(survey.lastRunLookups))
            : "-");
    return table;
}

} // namespace uvmasync
