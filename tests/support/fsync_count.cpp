// LD_PRELOAD shim that counts fsync and fdatasync calls across a process
// tree: each call appends one byte to the file named by
// COEFF_FSYNC_COUNT_FILE, then runs the real call. A byte per call, not
// a counter flushed at exit, because campaign workers leave through
// _exit. Without the variable the shim only forwards.
//
//   COEFF_FSYNC_COUNT_FILE=$PWD/n LD_PRELOAD=libfsync_count.so cmd...
//   wc -c < n
#include <dlfcn.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>

namespace {

void count_call() {
  const char* path = std::getenv("COEFF_FSYNC_COUNT_FILE");
  if (path == nullptr) return;
  const int fd = ::open(path, O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return;
  (void)!::write(fd, "f", 1);
  (void)::close(fd);
}

using SyncFn = int (*)(int);

SyncFn next_symbol(const char* name) {
  return reinterpret_cast<SyncFn>(::dlsym(RTLD_NEXT, name));
}

}  // namespace

extern "C" int fsync(int fd) {
  static const SyncFn real = next_symbol("fsync");
  count_call();
  return real(fd);
}

extern "C" int fdatasync(int fd) {
  static const SyncFn real = next_symbol("fdatasync");
  count_call();
  return real(fd);
}
