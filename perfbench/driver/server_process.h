// The server under test as a child process: `mnc_tool serve --listen 0`
// with default options (only the port is chosen, by the kernel), in an
// environment with no fail points, SIMD override or machine profile.

#ifndef PERFBENCH_DRIVER_SERVER_PROCESS_H_
#define PERFBENCH_DRIVER_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

// Variables that would change the server's configuration if inherited.
inline constexpr const char* kScrubbedEnv[] = {"MNC_FAILPOINTS", "MNC_PROFILE",
                                               "MNC_SIMD"};

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Starts `tool serve --listen 0` in `dir` (stdout/stderr go to files
  // there), with HOME and XDG_CACHE_HOME pointing at the empty directory
  // `home`, and waits until it prints its port. Returns an error message,
  // empty on success.
  std::string Start(const std::string& tool, const std::string& dir,
                    const std::string& home, int64_t timeout_ms = 20'000);

  // SIGTERM (graceful drain), then SIGKILL after a grace period; waits for
  // the process in every case. Idempotent.
  void Stop();

  int port() const { return port_; }

  // User + system CPU of the whole process (all threads), in milliseconds.
  std::optional<double> CpuMillis() const;
  // Peak resident set (VmHWM) since the process started, in MiB.
  std::optional<double> PeakRssMb() const;
  // The server's stderr so far (for error reports).
  std::string ErrorLog() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string out_path_, err_path_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SERVER_PROCESS_H_
