#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

extern char** environ;

namespace perfbench {

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

bool Scrubbed(const char* entry) {
  for (const char* name : kScrubbedEnv) {
    const size_t n = std::strlen(name);
    if (std::strncmp(entry, name, n) == 0 && entry[n] == '=') return true;
  }
  return std::strncmp(entry, "HOME=", 5) == 0 ||
         std::strncmp(entry, "XDG_CACHE_HOME=", 15) == 0;
}

}  // namespace

std::string ServerProcess::Start(const std::string& tool,
                                 const std::string& dir,
                                 const std::string& home,
                                 int64_t timeout_ms) {
  Stop();
  out_path_ = dir + "/server.out";
  err_path_ = dir + "/server.err";
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (!Scrubbed(*e)) env.emplace_back(*e);
  }
  env.push_back("HOME=" + home);
  env.push_back("XDG_CACHE_HOME=" + home);
  std::vector<char*> envp;
  for (std::string& s : env) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::string arg0 = tool, arg1 = "serve", arg2 = "--listen", arg3 = "0";
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(), arg3.data(),
                  nullptr};

  const int out = ::open(out_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int err = ::open(err_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0 || err < 0) {
    if (out >= 0) ::close(out);
    if (err >= 0) ::close(err);
    return "cannot create server log files in " + dir;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out);
    ::close(err);
    return std::string("fork: ") + std::strerror(errno);
  }
  if (pid == 0) {
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::close(out);
    ::close(err);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    if (::chdir(dir.c_str()) != 0) ::_exit(126);
    ::execve(tool.c_str(), argv, envp.data());
    ::_exit(127);
  }
  ::close(out);
  ::close(err);
  pid_ = pid;

  // The server prints "serving on 127.0.0.1:<port>" once it listens.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string text = ReadFile(out_path_);
    constexpr const char* kListening = "serving on 127.0.0.1:";
    const size_t at = text.find(kListening);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = std::atoi(text.c_str() + at + std::strlen(kListening));
      if (port_ > 0) return "";
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return "server exited during start-up (status " +
             std::to_string(status) + "): " + ReadFile(err_path_);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Stop();
  return "server did not report a listening port within " +
         std::to_string(timeout_ms) + " ms";
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 1500; ++i) {  // up to 15 s of graceful drain
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

std::optional<double> ServerProcess::CpuMillis() const {
  if (pid_ <= 0) return std::nullopt;
  const std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (in >> field); ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  const long ticks = ::sysconf(_SC_CLK_TCK);
  if (ticks <= 0) return std::nullopt;
  return (utime + stime) * 1000.0 / static_cast<double>(ticks);
}

std::optional<double> ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return std::nullopt;
  std::istringstream in(
      ReadFile("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return std::nullopt;
}

std::string ServerProcess::ErrorLog() const { return ReadFile(err_path_); }

}  // namespace perfbench
