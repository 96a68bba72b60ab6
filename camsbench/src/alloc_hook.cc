// Global operator new/delete replacements that count allocations per
// thread. They live in the benchmark binary only, so the library under
// test is measured from outside and unchanged.

#include <cstdlib>
#include <new>

#include "bench.hh"

namespace camsbench
{
thread_local long tlAllocs = 0;
}

namespace
{

void *
countedAlloc(std::size_t size)
{
    ++camsbench::tlAllocs;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++camsbench::tlAllocs;
    void *p = nullptr;
    const std::size_t alignment = static_cast<std::size_t>(align);
    if (posix_memalign(&p, alignment < sizeof(void *) ? sizeof(void *)
                                                       : alignment,
                       size == 0 ? 1 : size) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++camsbench::tlAllocs;
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++camsbench::tlAllocs;
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
