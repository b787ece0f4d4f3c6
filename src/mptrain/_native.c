/* The compiled loops of mptrain, loaded by _native.py:

   mm          c = a @ b for a [m,k] and b [k,n], all f32 and C-contiguous
               (tensor.matmul).  Every c[i,j] starts at +0 and adds
               a[i,p]*b[p,j] for p = 0..k-1 in that order.  With acc16
               the f32 sum of each add is rounded to binary16 (nearest
               even) and widened back before the next add.  The loop
               keeps a block of 6 rows x 16 columns of c in twelve
               registers while p runs, and stores each once at the end;
               the last m % 6 rows go one at a time, and the last 1..15
               columns as one or two eight-wide pieces, the last masked
               so that nothing outside a, b and c is read or written.
               Each output still takes its own products and adds in p
               order, one mul and one add, so its bits do not depend on
               the block it falls in.  Twelve sums, not eight, keep the
               ACC16 loop busy while each waits out its add and two
               conversions.
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

static inline AVX2 __attribute__((always_inline)) __m256 widen8(__m128i h)
{
    __m256 x = _mm256_cvtph_ps(h);
    __m256 nan = _mm256_castsi256_ps(_mm256_set1_epi32((int)F32_NAN));
    return _mm256_blendv_ps(x, nan, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

/* c[0..R-1, 0..8V-1] of a block of R = 6 or 1 rows and V = 2 or 1
   eight-wide pieces, the last piece limited to the lanes of `tail` when
   `masked`.  Each of the R*V sums stays in a register from +0 through
   p = k-1 and is stored once. */
static inline AVX2 __attribute__((always_inline)) void block(
    const float *a, const float *b, float *c, long k, long n,
    int R, int V, int masked, __m256i tail, int acc16)
{
    __m256 acc[6][2];
    for (int r = 0; r < R; r++)
        for (int v = 0; v < V; v++)
            acc[r][v] = _mm256_setzero_ps();
    for (long p = 0; p < k; p++) {
        __m256 bp[2];
        for (int v = 0; v < V; v++)
            bp[v] = masked && v == V - 1 ? _mm256_maskload_ps(b + p * n + 8 * v, tail)
                                         : _mm256_loadu_ps(b + p * n + 8 * v);
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
                _mm256_maskstore_ps(c + r * n + 8 * v, tail, acc[r][v]);
            else
                _mm256_storeu_ps(c + r * n + 8 * v, acc[r][v]);
        }
}

/* Rows 0..R-1 of c: 16-column blocks, then the last 1..15 columns as
   one block of one or two pieces, the last one masked. */
static inline AVX2 __attribute__((always_inline)) void rows(
    const float *a, const float *b, float *c, long k, long n,
    int R, __m256i tail, int acc16)
{
    long j = 0;
    for (; j + 16 <= n; j += 16)
        block(a, b + j, c + j, k, n, R, 2, 0, tail, acc16);
    if (n - j > 8)
        block(a, b + j, c + j, k, n, R, 2, 1, tail, acc16);
    else if (n > j)
        block(a, b + j, c + j, k, n, R, 1, 1, tail, acc16);
}

static inline AVX2 __attribute__((always_inline)) void mm_blocks(
    const float *a, const float *b, float *c, long m, long k, long n, int acc16)
{
    const __m256i tail = _mm256_cmpgt_epi32(
        _mm256_set1_epi32((int)((n - 1) % 8 + 1)), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    long i = 0;
    for (; i + 6 <= m; i += 6)
        rows(a + i * k, b, c + i * n, k, n, 6, tail, acc16);
    for (; i < m; i++)
        rows(a + i * k, b, c + i * n, k, n, 1, tail, acc16);
}

AVX2 void mm(const float *a, const float *b, float *c,
             long m, long k, long n, int acc16)
{
    if (acc16)
        mm_blocks(a, b, c, m, k, n, 1);
    else
        mm_blocks(a, b, c, m, k, n, 0);
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
        _mm256_storeu_ps(x + i, widen8(_mm_loadu_si128((const __m128i *)(h + i))));
    if (i < n) {
        uint16_t in[8] = {0};
        float out[8];
        memcpy(in, h + i, (n - i) * sizeof *in);
        _mm256_storeu_ps(out, widen8(_mm_loadu_si128((const __m128i *)in)));
        memcpy(x + i, out, (n - i) * sizeof *out);
    }
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
