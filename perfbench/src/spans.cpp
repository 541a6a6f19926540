#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::spans {
namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_main_thread{0};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>& registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard lock(g_registry_mutex);
    auto& buffers = registry();
    buffers.push_back(std::make_unique<ThreadBuffer>());
    buffers.back()->thread = static_cast<std::uint32_t>(buffers.size() - 1);
    return buffers.back().get();
  }();
  return *buffer;
}

thread_local std::vector<std::uint32_t> t_stack;

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_enabled(bool enabled) noexcept {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void mark_main_thread() {
  g_main_thread.store(local_buffer().thread, std::memory_order_relaxed);
}

std::uint32_t main_thread() {
  return g_main_thread.load(std::memory_order_relaxed);
}

Scope::Scope(const char* layer, const char* name, std::uint64_t arg,
             std::uint32_t parent) noexcept {
  if (!enabled()) return;
  span_.layer = layer;
  span_.name = name;
  span_.arg = arg;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent != 0 ? parent : (t_stack.empty() ? 0 : t_stack.back());
  t_stack.push_back(span_.id);
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  t_stack.pop_back();
  ThreadBuffer& buffer = local_buffer();
  span_.thread = buffer.thread;
  buffer.spans.push_back(span_);
}

std::vector<Span> drain() {
  std::vector<Span> out;
  std::lock_guard lock(g_registry_mutex);
  for (auto& buffer : registry()) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%u,\"parent\":%u,\"arg\":%llu}}",
                 i == 0 ? "" : ",", s.layer, s.name, s.layer,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
                 s.id, s.parent, static_cast<unsigned long long>(s.arg));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench::spans
