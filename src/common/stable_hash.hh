/**
 * @file
 * The one stable 64-bit hash: FNV-1a over explicit bytes, finalized
 * with the splitmix64 mixer.
 *
 * Every persisted or seed-bearing hash in the simulator is built from
 * it: point config hashes, campaign hashes, the model-semantics
 * fingerprint, ParallelRunner point seeds, inject salts, job-file
 * base seeds and the record-log checksum. None of them may depend on
 * the platform or the standard library (no std::hash), so integers
 * are fed as explicit little-endian bytes and doubles by bit pattern.
 * Known-answer tests pin the values (tests/test_stable_hash.cc).
 *
 * Each FNV-1a step is a bijection of the state for a fixed byte, and
 * mix64 is a bijection, so inputs of equal length that differ in one
 * byte always hash differently.
 */

#ifndef UVMASYNC_COMMON_STABLE_HASH_HH
#define UVMASYNC_COMMON_STABLE_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace uvmasync
{

/** FNV-1a 64-bit offset basis (the state before any byte). */
constexpr std::uint64_t fnvOffsetBasis = 0xcbf29ce484222325ull;

/** Fold @p len bytes at @p data into the FNV-1a state @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h = fnvOffsetBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** splitmix64 finalizer: spreads a structured hash over all 64 bits. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Field-by-field accumulator. Never hash struct memory directly:
 * padding bytes are indeterminate and would make the value
 * compiler-dependent.
 */
class StableHasher
{
  public:
    explicit StableHasher(std::uint64_t state = fnvOffsetBasis)
        : h_(state)
    {
    }

    StableHasher &
    bytes(const void *data, std::size_t len)
    {
        h_ = fnv1a(data, len, h_);
        return *this;
    }

    /** Eight bytes, least significant first. */
    StableHasher &
    u64(std::uint64_t v)
    {
        unsigned char le[8];
        for (int i = 0; i < 8; ++i)
            le[i] = static_cast<unsigned char>(v >> (8 * i));
        return bytes(le, sizeof(le));
    }

    StableHasher &
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        return u64(bits);
    }

    /** The bytes plus a NUL: an unambiguous field boundary. */
    StableHasher &
    str(const std::string &s)
    {
        bytes(s.data(), s.size());
        return bytes("", 1);
    }

    /** The raw FNV-1a state, unfinalized. */
    std::uint64_t state() const { return h_; }

    /** The finalized hash: mix64 of the state. */
    std::uint64_t hash() const { return mix64(h_); }

  private:
    std::uint64_t h_;
};

} // namespace uvmasync

#endif // UVMASYNC_COMMON_STABLE_HASH_HH
