#include "hash_table.hh"

#include <algorithm>

#include "runtime/runtime.hh"

namespace pei
{

namespace
{

std::uint64_t
nextPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

std::uint64_t
hashTableHash(std::uint64_t key)
{
    std::uint64_t x = key + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

HashTableImage
buildHashTable(const std::vector<std::uint64_t> &keys)
{
    HashTableImage img;
    img.num_buckets =
        nextPow2(std::max<std::uint64_t>(keys.size() / 4, 1));
    img.buckets.resize(img.num_buckets);
    img.chain_next.assign(img.num_buckets, 0);

    for (const auto key : keys) {
        std::uint64_t b = hashTableHash(key) & (img.num_buckets - 1);
        while (true) {
            if (img.buckets[b].count < HashBucket::max_keys) {
                img.buckets[b].keys[img.buckets[b].count++] = key;
                break;
            }
            if (img.chain_next[b] == 0) {
                img.buckets.push_back(HashBucket{});
                img.chain_next.push_back(0);
                img.chain_next[b] = img.buckets.size(); // index+1
            }
            b = img.chain_next[b] - 1;
        }
    }
    return img;
}

bool
HashTableImage::contains(std::uint64_t key) const
{
    std::uint64_t b = hashTableHash(key) & (num_buckets - 1);
    while (true) {
        const HashBucket &bucket = buckets[b];
        for (std::uint64_t i = 0; i < bucket.count; ++i)
            if (bucket.keys[i] == key)
                return true;
        if (chain_next[b] == 0)
            return false;
        b = chain_next[b] - 1;
    }
}

Addr
materializeHashTable(Runtime &rt, const HashTableImage &img)
{
    const Addr table =
        rt.alloc(img.buckets.size() * sizeof(HashBucket), block_size);
    rt.system().memory().writeArray<HashBucket>(
        table, img.buckets.size(), [&img, table](std::uint64_t i) {
            HashBucket bucket = img.buckets[i];
            bucket.next = img.chain_next[i]
                              ? table + (img.chain_next[i] - 1) * block_size
                              : 0;
            return bucket;
        });
    return table;
}

} // namespace pei
