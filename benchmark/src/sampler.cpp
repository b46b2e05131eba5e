#include "sampler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <sys/ucontext.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>
#include <unordered_map>

namespace hwbench {

namespace {

// The handler finds its sampler here; set only while one is armed.
std::atomic<Sampler*> g_active{nullptr};

/// How far above the interrupted stack pointer to look for the program's
/// return address when a library function was interrupted.
constexpr std::uintptr_t kScanBytes = 4096;

int find_main_text(dl_phdr_info* info, std::size_t, void* data) {
  // The first object reported is the main program.
  auto* range = static_cast<std::pair<std::uintptr_t, std::uintptr_t>*>(data);
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    range->first = info->dlpi_addr + ph.p_vaddr;
    range->second = range->first + ph.p_memsz;
  }
  return 1;
}

/// Reads one word of the live stack. A stack walk crosses other frames'
/// locals, so AddressSanitizer must not check these reads.
[[gnu::no_sanitize_address]] std::uintptr_t load_word(std::uintptr_t addr) {
  return *reinterpret_cast<const std::uintptr_t*>(addr);
}

/// The module named right after the earliest `hpcwhisk::` in `s`, "bench"
/// when `hwbench::` comes first, "" when neither occurs.
std::string first_scope(std::string_view s) {
  constexpr std::string_view kLib = "hpcwhisk::";
  constexpr std::string_view kBench = "hwbench::";
  const std::size_t lib = s.find(kLib);
  const std::size_t bench = s.find(kBench);
  if (bench < lib) return "bench";
  if (lib == std::string_view::npos) return "";
  const std::size_t begin = lib + kLib.size();
  const std::size_t end = s.find("::", begin);
  if (end == std::string_view::npos) return "";
  return std::string{s.substr(begin, end - begin)};
}

}  // namespace

std::string layer_of_symbol(std::string_view name) {
  // InplaceCallback<N>::emplace<F>(...)::{lambda}::_FUN is the thunk that
  // runs an event's closure F: charge F's author, not the event loop.
  if (name.find("hpcwhisk::sim::InplaceCallback<") != std::string_view::npos) {
    const std::size_t arg = name.find("::emplace<");
    if (arg != std::string_view::npos) {
      std::string layer = first_scope(name.substr(arg + 10));
      if (!layer.empty()) return layer;
    }
  }
  return first_scope(name);
}

Sampler::Sampler(std::size_t capacity)
    : capacity_{capacity},
      frames_(capacity * kMaxDepth),
      depth_(capacity) {}

Sampler::~Sampler() { stop(); }

void Sampler::start(int hz) {
  if (armed_ || hz <= 0) return;
  std::pair<std::uintptr_t, std::uintptr_t> text{0, 0};
  dl_iterate_phdr(find_main_text, &text);
  text_lo_ = text.first;
  text_hi_ = text.second;

  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0)
    throw std::runtime_error("sampler: pthread_getattr_np failed");
  void* stack_addr = nullptr;
  std::size_t stack_size = 0;
  pthread_attr_getstack(&attr, &stack_addr, &stack_size);
  pthread_attr_destroy(&attr);
  stack_lo_ = reinterpret_cast<std::uintptr_t>(stack_addr);
  stack_hi_ = stack_lo_ + stack_size;

  g_active.store(this);
  struct sigaction sa {};
  sa.sa_sigaction = &Sampler::on_signal;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);

  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = static_cast<int>(gettid());
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0)
    throw std::runtime_error("sampler: timer_create failed");
  const long period_ns = 1'000'000'000L / hz;
  itimerspec spec{};
  spec.it_interval.tv_nsec = period_ns;
  spec.it_value.tv_nsec = period_ns;
  timer_settime(timer_, 0, &spec, nullptr);
  armed_ = true;
}

void Sampler::stop() {
  if (!armed_) return;
  timer_delete(timer_);
  // A tick may still be pending: ignore it rather than let SIGPROF's
  // default action end the process.
  signal(SIGPROF, SIG_IGN);
  g_active.store(nullptr);
  armed_ = false;
}

void Sampler::on_signal(int, siginfo_t*, void* context) {
  Sampler* self = g_active.load(std::memory_order_relaxed);
  if (self == nullptr) return;
  const std::size_t slot = self->count_.load(std::memory_order_relaxed);
  if (slot >= self->capacity_) {
    self->overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto* uc = static_cast<const ucontext_t*>(context);
  const auto ip = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  const std::uintptr_t hi = self->stack_hi_;
  std::uintptr_t* out = &self->frames_[slot * kMaxDepth];
  std::size_t n = 0;
  out[n++] = ip;
  // Walk only while running on the main thread's own stack (not, say, a
  // sanitizer's alternate stack).
  if (sp < self->stack_lo_ || sp >= hi) {
    self->depth_[slot] = static_cast<std::uint8_t>(n);
    self->count_.store(slot + 1, std::memory_order_relaxed);
    return;
  }
  const auto in_text = [self](std::uintptr_t pc) {
    return pc >= self->text_lo_ + 8 && pc < self->text_hi_;
  };
  // A return address into the program follows a call instruction.
  const auto is_return = [&in_text](std::uintptr_t pc) {
    if (!in_text(pc)) return false;
    const auto* b = reinterpret_cast<const std::uint8_t*>(pc);
    return b[-5] == 0xE8 ||                              // call rel32
           (b[-2] == 0xFF && (b[-1] & 0x38) == 0x10) ||  // call *%reg
           (b[-3] == 0xFF && (b[-2] & 0x38) == 0x10) ||  // call *disp8(%reg)
           (b[-6] == 0xFF && (b[-5] & 0x38) == 0x10);    // call *disp32(...)
  };

  if (!in_text(ip) && sp % 8 == 0) {
    // Interrupted in libc or the vdso, which keep no frame pointers: the
    // call that left the program is the first return address above sp.
    // A library that reused %rbp saved the program's frame pointer below
    // that return address.
    for (std::uintptr_t p = sp; p <= hi - 8 && p < sp + kScanBytes; p += 8) {
      if (!is_return(load_word(p))) continue;
      out[n++] = load_word(p);
      if (fp <= p || fp > hi - 16) {
        fp = 0;
        for (std::uintptr_t q = sp; q < p; q += 8) {
          const std::uintptr_t v = load_word(q);
          if (v > p && v <= hi - 16 && v % 8 == 0 && is_return(load_word(v + 8))) {
            fp = v;
            break;
          }
        }
      }
      break;
    }
  }
  // Frames live between the interrupted stack pointer and the stack top.
  while (n < kMaxDepth && fp >= sp && fp <= hi - 16 && fp % 8 == 0) {
    const std::uintptr_t next = load_word(fp);
    const std::uintptr_t ret = load_word(fp + 8);
    if (ret == 0) break;
    out[n++] = ret;
    if (next <= fp) break;
    fp = next;
  }
  self->depth_[slot] = static_cast<std::uint8_t>(n);
  self->count_.store(slot + 1, std::memory_order_relaxed);
}

std::map<std::string, std::size_t> Sampler::attribute() const {
  std::unordered_map<std::uintptr_t, std::string> cache;
  const auto layer_at = [&cache](std::uintptr_t pc) -> const std::string& {
    auto [it, fresh] = cache.try_emplace(pc);
    if (!fresh) return it->second;
    Dl_info info{};
    if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
        info.dli_sname != nullptr) {
      int status = 0;
      char* demangled =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      it->second = layer_of_symbol(status == 0 ? demangled : info.dli_sname);
      std::free(demangled);
    }
    return it->second;
  };

  std::map<std::string, std::size_t> counts;
  const std::size_t n = samples();
  for (std::size_t s = 0; s < n; ++s) {
    const std::uintptr_t* frames = &frames_[s * kMaxDepth];
    std::string layer = "other";
    for (std::size_t f = 0; f < depth_[s]; ++f) {
      // Return addresses point past the call; step back into it.
      const std::string& l = layer_at(f == 0 ? frames[f] : frames[f] - 1);
      if (!l.empty()) {
        layer = l;
        break;
      }
    }
    ++counts[layer];
  }
  return counts;
}

}  // namespace hwbench
