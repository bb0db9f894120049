#include "common/content_store.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/sha256.hh"

namespace clustersim {

namespace {

bool
isHexKey(const std::string &s)
{
    if (s.size() != 64)
        return false;
    for (char c : s) {
        bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex)
            return false;
    }
    return true;
}

/** Owns an open file descriptor. */
class FileDescriptor
{
  public:
    explicit FileDescriptor(int fd) : fd_(fd) {}
    ~FileDescriptor()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    FileDescriptor(const FileDescriptor &) = delete;
    FileDescriptor &operator=(const FileDescriptor &) = delete;

    int get() const { return fd_; }

  private:
    int fd_;
};

/** The regular file open on fd, read whole into one buffer of its size;
 *  nullopt for anything else or a short read. */
std::optional<std::string>
readRegularFile(int fd)
{
    struct stat st = {};
    if (fstat(fd, &st) != 0 || !S_ISREG(st.st_mode))
        return std::nullopt;
    std::string buf(static_cast<std::size_t>(st.st_size), '\0');
    std::size_t got = 0;
    while (got < buf.size()) {
        ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return std::nullopt;
        got += static_cast<std::size_t>(n);
    }
    return buf;
}

} // namespace

ContentStore::ContentStore(std::string dir, std::string salt,
                           const char *magic, const char *suffix)
    : dir_(std::move(dir)), salt_(std::move(salt)), magic_(magic),
      suffix_(suffix)
{
    if (dir_.empty())
        return;
    // Create the directory (one level; parents must exist). An
    // existing directory is fine; anything else fails loudly now
    // rather than on the first store.
    if (mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST)
        fatal("store: cannot create directory '", dir_, "': ",
              std::strerror(errno));
    struct stat st = {};
    if (stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        fatal("store: '", dir_, "' is not a directory");
}

std::string
ContentStore::address(const std::string &identity) const
{
    if (identity.empty())
        return {};
    Sha256 h;
    h.update(magic_, std::strlen(magic_));
    h.update(salt_);
    h.update(identity);
    return h.hexDigest();
}

std::string
ContentStore::pathFor(const std::string &key) const
{
    return dir_ + "/" + key + suffix_;
}

bool
ContentStore::contains(const std::string &key) const
{
    if (!enabled() || key.empty())
        return false;
    struct stat st = {};
    return stat(pathFor(key).c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

std::optional<std::string>
ContentStore::read(const std::string &key, bool &corrupt) const
{
    if (!enabled() || key.empty())
        return std::nullopt;
    FileDescriptor fd(::open(pathFor(key).c_str(), O_RDONLY | O_CLOEXEC));
    if (fd.get() < 0)
        return std::nullopt;
    // An entry that exists is corrupt until every check below passes.
    corrupt = true;
    std::optional<std::string> file = readRegularFile(fd.get());
    if (!file)
        return std::nullopt;

    // Header line: "<magic> <key> <payload-bytes> <payload-sha256>\n",
    // then the payload and a trailing newline, exactly as store() writes
    // them. The declared length is untrusted: it is compared, as text,
    // with the bytes that are left, never parsed or added to.
    std::size_t nl = file->find('\n');
    if (nl == std::string::npos || file->size() - nl < 2 ||
        file->back() != '\n')
        return std::nullopt;
    std::size_t payload_at = nl + 1;
    std::size_t bytes = file->size() - payload_at - 1;
    std::string fields = std::string(magic_) + ' ' + key + ' ' +
                         std::to_string(bytes) + ' ';
    if (nl != fields.size() + 64 ||
        file->compare(0, fields.size(), fields) != 0)
        return std::nullopt;
    Sha256 h;
    h.update(file->data() + payload_at, bytes);
    if (file->compare(fields.size(), 64, h.hexDigest()) != 0)
        return std::nullopt;
    corrupt = false;
    // The payload, in place in the buffer it was read into.
    file->pop_back();
    file->erase(0, payload_at);
    return file;
}

void
ContentStore::count(bool hit, bool corrupt)
{
    MutexLock lock(mutex_);
    if (hit)
        stats_.hits++;
    else
        stats_.misses++;
    if (corrupt)
        stats_.corrupt++;
}

std::optional<std::string>
ContentStore::load(const std::string &key)
{
    bool corrupt = false;
    std::optional<std::string> payload = read(key, corrupt);
    count(payload.has_value(), corrupt);
    return payload;
}

bool
ContentStore::loadOrLease(const std::string &key, ComputeLease &lease,
                          const std::function<bool(const std::string &)> &accept)
{
    auto usable = [&](bool &corrupt) {
        std::optional<std::string> payload = read(key, corrupt);
        if (payload && !accept(*payload))
            corrupt = true;
        return payload && !corrupt;
    };
    bool corrupt = false;
    bool hit = usable(corrupt);
    if (!hit) {
        lease = beginCompute(key);
        bool again = false;
        hit = usable(again);
        corrupt = corrupt || again;
    }
    count(hit, corrupt);
    return hit;
}

void
ContentStore::store(const std::string &key, const std::string &payload)
{
    if (!enabled() || key.empty())
        return;

    std::uint64_t serial;
    {
        MutexLock lock(mutex_);
        serial = tmpCounter_++;
    }
    // Unique temp name, then atomic rename: readers only ever see
    // complete files, and concurrent same-key writers are benign (the
    // payload is content-addressed, so every writer of one kind of
    // payload writes the same bytes).
    std::string tmp = dir_ + "/.tmp-" + std::to_string(getpid()) + "-" +
                      std::to_string(serial);
    std::string path = pathFor(key);

    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (f) {
        f << magic_ << ' ' << key << ' ' << payload.size() << ' '
          << sha256Hex(payload) << '\n'
          << payload << '\n';
        f.flush();
    }
    bool ok = static_cast<bool>(f);
    f.close();
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        std::remove(tmp.c_str());
        warn("store: failed to store ", path);
    }

    MutexLock lock(mutex_);
    if (ok)
        stats_.stores++;
    else
        stats_.storeFailures++;
}

ContentStore::ComputeLease
ContentStore::beginCompute(const std::string &key)
{
    if (key.empty())
        return {};
    UniqueLock lock(inflightMutex_);
    inflightCv_.wait(lock, [&]() CSIM_REQUIRES(inflightMutex_) {
        return inflight_.count(key) == 0;
    });
    inflight_.insert(key);
    return ComputeLease(this, key);
}

void
ContentStore::endCompute(const std::string &key)
{
    {
        MutexLock lock(inflightMutex_);
        inflight_.erase(key);
    }
    inflightCv_.notify_all();
}

void
ContentStore::ComputeLease::release()
{
    if (store_) {
        store_->endCompute(key_);
        store_ = nullptr;
        key_.clear();
    }
}

StoreStats
ContentStore::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

void
ContentStore::diskUsage(std::uint64_t &entries, std::uint64_t &bytes) const
{
    entries = 0;
    bytes = 0;
    if (!enabled())
        return;
    DIR *d = opendir(dir_.c_str());
    if (!d)
        return;
    std::size_t suffix_len = std::strlen(suffix_);
    while (struct dirent *e = readdir(d)) {
        std::string name = e->d_name;
        if (name.size() != 64 + suffix_len ||
            name.compare(64, suffix_len, suffix_) != 0 ||
            !isHexKey(name.substr(0, 64)))
            continue;
        struct stat st = {};
        if (stat((dir_ + "/" + name).c_str(), &st) == 0) {
            entries++;
            bytes += static_cast<std::uint64_t>(st.st_size);
        }
    }
    closedir(d);
}

} // namespace clustersim
