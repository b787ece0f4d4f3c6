/* The compiled loops of mptrain, loaded by _native.py:

   mm          c = a @ b for a [m,k] and b [k,n] as the tensors store them,
               C-contiguous f32 or, when f16 is set, binary16 patterns
               (tensor.matmul).  Every c[i,j] starts at +0 and adds
               a[i,p]*b[p,j] for p = 0..k-1 in that order.  With acc16
               each add's f32 sum is rounded to binary16 (nearest even)
               and widened back: two roundings per step.  mm packs b into
               one aligned buffer (see pack), widens an f16 a after it and
               reads an f32 a in place; it returns -1 when it cannot
               allocate the buffer (whole eight-float pieces, as
               aligned_alloc wants), else 0.  A block of 6 x 16 of c stays
               in twelve registers while p runs and is stored once, its
               NaNs made 0x7FC00000; the last m % 6 rows go one at a time,
               the last 1..15 columns as one or two eight-wide pieces, the
               last masked.  Each output still takes its own products and
               adds in p order, one mul and one add, so its bits do not
               depend on its block.  Twelve sums, not eight, keep the ACC16
               loop busy while each waits out its add and two conversions.
   f32_to_f16  f32 -> binary16 pattern, nearest even, every NaN 0x7E00
               (binary16.from_f32_array).
   f16_to_f32  binary16 pattern -> f32, exact, every NaN 0x7FC00000
               (binary16.to_f32_array).
   fold_rows   out[j] = +0 + x[0,j] + x[1,j] + ... + x[rows-1,j], rows in
               order, vectorized across j, every NaN 0x7FC00000
               (tensor.seq_sum).

   Each loop is defined once, for x86-64 CPUs with AVX2 and F16C: it
   rounds eight acc16 columns and converts eight values at a time with
   vcvtps2ph (immediate round-to-nearest-even, so MXCSR plays no part)
   and vcvtph2ps.  vector_path() says whether this CPU runs them; the
   loader asks once.  Where it says 0 (on any other architecture the
   file holds only vector_path), the loader binds nothing and every
   loop runs as its numpy twin in _native.py, which gives the same bits.

   Build with -ffp-contract=off, so that no product is fused into its
   add.  The loops are not built with FMA either. */
#ifdef __x86_64__
#include <immintrin.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define F16_NAN 0x7E00
#define F32_NAN 0x7FC00000u
#define AVX2 __attribute__((target("avx2,f16c")))

int vector_path(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
}

static inline AVX2 __attribute__((always_inline)) __m128i store8(__m256 v)
{
    __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    __m128i nan = _mm_cmpgt_epi16(_mm_and_si128(h, _mm_set1_epi16(0x7FFF)),
                                  _mm_set1_epi16(0x7C00));
    return _mm_blendv_epi8(h, _mm_set1_epi16(F16_NAN), nan);
}

static inline AVX2 __attribute__((always_inline)) __m256 canon8(__m256 x)
{
    __m256 nan = _mm256_castsi256_ps(_mm256_set1_epi32((int)F32_NAN));
    return _mm256_blendv_ps(x, nan, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

/* b [k,n] as panels into pb: the one of columns j.. starts at pb + j*k
   and holds k rows of its width, 16 or (with at most 8 columns left) 8,
   widened from binary16 when size is 2 and zero past n.  A row's last
   1..7 columns go through a zeroed local piece: nothing past b is read. */
static inline AVX2 __attribute__((always_inline)) void pack(
    const char *b, float *pb, long k, long n, long size)
{
    for (long j = 0; j < n; j += 16)
        for (long p = 0, w = n - j > 8 ? 16 : 8; p < k; p++)
            for (long v = 0; v < w; v += 8) {
                char in[32] = {0};
                const char *x = b + (p * n + j + v) * size;
                if (n - j - v < 8)
                    x = memcpy(in, x, (n - j - v) * size);
                _mm256_store_ps(pb + j * k + p * w + v, size == 2
                                ? _mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)x))
                                : _mm256_loadu_ps((const float *)x));
            }
}

/* c[0..R-1, 0..8V-1] of a block of R = 6 or 1 rows and V = 2 or 1
   eight-wide pieces, from the panel of its columns, the last piece of c
   limited to the lanes of `tail` when `masked`.  Each of the R*V sums
   stays in a register from +0 through p = k-1 and is stored once. */
static inline AVX2 __attribute__((always_inline)) void block(
    const float *a, const float *panel, float *c, long k, long n,
    int R, int V, int masked, __m256i tail, int acc16)
{
    __m256 acc[6][2];
    for (int r = 0; r < R; r++)
        for (int v = 0; v < V; v++)
            acc[r][v] = _mm256_setzero_ps();
    for (long p = 0; p < k; p++) {
        __m256 bp[2];
        for (int v = 0; v < V; v++)
            bp[v] = _mm256_load_ps(panel + (p * V + v) * 8);
        for (int r = 0; r < R; r++) {
            const __m256 ar = _mm256_broadcast_ss(a + r * k + p);
            for (int v = 0; v < V; v++) {
                acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(ar, bp[v]));
                if (acc16)
                    acc[r][v] = _mm256_cvtph_ps(
                        _mm256_cvtps_ph(acc[r][v], _MM_FROUND_TO_NEAREST_INT));
            }
        }
    }
    for (int r = 0; r < R; r++)
        for (int v = 0; v < V; v++) {
            if (masked && v == V - 1)
                _mm256_maskstore_ps(c + r * n + 8 * v, tail, canon8(acc[r][v]));
            else
                _mm256_storeu_ps(c + r * n + 8 * v, canon8(acc[r][v]));
        }
}

/* Rows 0..R-1 of c: 16-column blocks, then the last 1..15 columns as
   one block of one or two pieces, the last one masked. */
static inline AVX2 __attribute__((always_inline)) void rows(
    const float *a, const float *pb, float *c, long k, long n,
    int R, __m256i tail, int acc16)
{
    long j = 0;
    for (; j + 16 <= n; j += 16)
        block(a, pb + j * k, c + j, k, n, R, 2, 0, tail, acc16);
    if (n - j > 8)
        block(a, pb + j * k, c + j, k, n, R, 2, 1, tail, acc16);
    else if (n > j)
        block(a, pb + j * k, c + j, k, n, R, 1, 1, tail, acc16);
}

static inline AVX2 __attribute__((always_inline)) void mm_blocks(
    const float *a, const float *pb, float *c, long m, long k, long n, int acc16)
{
    const __m256i tail = _mm256_cmpgt_epi32(
        _mm256_set1_epi32((int)((n - 1) % 8 + 1)), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    long i = 0;
    for (; i + 6 <= m; i += 6)
        rows(a + i * k, pb, c + i * n, k, n, 6, tail, acc16);
    for (; i < m; i++)
        rows(a + i * k, pb, c + i * n, k, n, 1, tail, acc16);
}

/* The last n % 8 elements go through the same eight-wide code, padded. */
AVX2 void f32_to_f16(const float *x, uint16_t *h, long n)
{
    long i = 0;
    for (; i + 8 <= n; i += 8)
        _mm_storeu_si128((__m128i *)(h + i), store8(_mm256_loadu_ps(x + i)));
    if (i < n) {
        float in[8] = {0};
        uint16_t out[8];
        memcpy(in, x + i, (n - i) * sizeof *in);
        _mm_storeu_si128((__m128i *)out, store8(_mm256_loadu_ps(in)));
        memcpy(h + i, out, (n - i) * sizeof *out);
    }
}

AVX2 void f16_to_f32(const uint16_t *h, float *x, long n)
{
    long i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(x + i, canon8(_mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)(h + i)))));
    if (i < n) {
        uint16_t in[8] = {0};
        float out[8];
        memcpy(in, h + i, (n - i) * sizeof *in);
        _mm256_storeu_ps(out, canon8(_mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)in))));
        memcpy(x + i, out, (n - i) * sizeof *out);
    }
}

AVX2 int mm(const void *a, const void *b, float *c,
            long m, long k, long n, int f16, int acc16)
{
    const long packed = k * ((n + 7) & ~7L);
    float *pb = aligned_alloc(32, sizeof(float) * (packed + (f16 ? (m * k + 7) & ~7L : 0)));
    if (!pb)
        return -1;
    f16 ? pack(b, pb, k, n, 2) : pack(b, pb, k, n, 4);
    if (f16)
        f16_to_f32(a, pb + packed, m * k);
    const float *x = f16 ? pb + packed : a;
    acc16 ? mm_blocks(x, pb, c, m, k, n, 1) : mm_blocks(x, pb, c, m, k, n, 0);
    free(pb);
    return 0;
}

AVX2 void fold_rows(const float *x, float *out, long rows, long cols)
{
    for (long j = 0; j < cols; j++)
        out[j] = 0.0f;
    for (long r = 0; r < rows; r++)
        for (long j = 0; j < cols; j++)
            out[j] += x[r * cols + j];
    for (long j = 0; j < cols; j++)
        out[j] = out[j] == out[j] ? out[j] : __builtin_nanf("");
}
#else
int vector_path(void)
{
    return 0;
}
#endif
