/* Flat pair-sum kernel for the exact O(n²) estimator.

   The OCaml side stages the design into flat buffers (cells sorted by
   (type, original index)) and calls [rgleak_pair_sum] once per row
   tile.  For every ordered pair (a, b) with lo <= a < hi, a < b < n,
   the kernel evaluates the binned covariance table of the two cell
   types at their Euclidean distance by linear interpolation and
   accumulates the values into a fixed set of EIGHT lane accumulators.

   Determinism contract (mirrored bit-for-bit by Pair_kernel.sum_ocaml
   and relied on by the cross-ISA and cross-jobs equality tests):

   - Per (row, type-segment), pairs are consumed in blocks of 8; the
     j-th pair of a block goes to lane j.  The < 8 trailing pairs of a
     segment go to a second bank of 8 remainder lanes, again j-th pair
     to lane j.
   - The call's result is sum_{j=0..7} (lane[j] + rem[j]), summed in
     increasing j, each parenthesized exactly like that.
   - Per-pair arithmetic is plain IEEE double +, -, *, sqrt (correctly
     rounded everywhere), with FMA contraction disabled.

   Each loop is written once, over GCC vector types, and stamped out
   per target by RGLEAK_KERNELS: the baseline target (the only one off
   x86), AVX2 and AVX-512, picked at run time.  The loops use lane-wise
   IEEE ops only, so every target produces identical bits and only the
   instruction count changes.  Intrinsics appear in one place, the
   per-target table lookup (index clamp plus gather).

   Everything the kernel reads lives in caller-owned bigarrays; the
   kernel allocates nothing and never touches the OCaml heap, so calls
   need no GC cooperation beyond returning one boxed float. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define RGLEAK_LANES 8

#define RGLEAK_ISA_AUTO 0
#define RGLEAK_ISA_SCALAR 1
#define RGLEAK_ISA_AVX2 2
#define RGLEAK_ISA_AVX512 3

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define RGLEAK_X86_DISPATCH 1
#include <immintrin.h>
#define RGLEAK_AVX2 __attribute__((target("avx2")))
#define RGLEAK_AVX512 __attribute__((target("avx2,avx512f,avx512dq,avx512vl")))
#else
#define RGLEAK_X86_DISPATCH 0
#endif

/* ---------- vectors of W lanes: vWd doubles, vWl int64 masks ----------

   A target uses the width its registers hold; wider ones lower to
   memory round trips. */

typedef double v2d __attribute__((vector_size(2 * sizeof(double))));
typedef double v4d __attribute__((vector_size(4 * sizeof(double))));
typedef double v8d __attribute__((vector_size(8 * sizeof(double))));
typedef int64_t v2l __attribute__((vector_size(2 * sizeof(int64_t))));
typedef int64_t v4l __attribute__((vector_size(4 * sizeof(int64_t))));
typedef int64_t v8l __attribute__((vector_size(8 * sizeof(int64_t))));

#define VD(W) v##W##d
#define VL(W) v##W##l
#define LOADV(W, p) ({ VD(W) v_; memcpy(&v_, (p), sizeof v_); v_; })
#define STOREV(W, p, e) ({ VD(W) v_ = (e); memcpy((p), &v_, sizeof v_); })
/* m = max(m, |v|) lane-wise, for finite v, on the bit patterns: they
   order non-negative doubles as int64 */
#define MAXABS(W, m, v)                                                      \
  ((m) = ({ VL(W) a_ = (VL(W)) (v) & INT64_MAX, lt_ = (m) < a_;              \
            ((m) & ~lt_) | (a_ & lt_); }))

typedef struct {
  const double *xs, *ys, *scale, *cov;
  const intnat *ty, *seg, *base;
  intnat nu, kmax;
  double inv_dstep;
} pair_geom;

/* p[b .. e), e - b < w, padded with [fill] to w lanes in out */
static inline const double *pad(double *out, int w, const double *p,
                                intnat b, intnat e, double fill)
{
  int j;
  for (j = 0; j < w; j++) out[j] = b + j < e ? p[b + j] : fill;
  return out;
}

/* ---------- per-target table lookup ----------

   t0 = tbl[k] and t1 = tbl[k + 1] for each lane's bin position pos,
   k = trunc(pos) clamped to [0, kmax]; returns k as a double.  The one
   per-target helper: vector extensions have no gather. */

static inline v2d lookup_portable(const double *tbl, v2d pos, intnat kmax,
                                  v2d *t0, v2d *t1)
{
  v2d kd;
  int j;
  for (j = 0; j < 2; j++) {
    intnat k = (intnat) pos[j];
    k = k < 0 ? 0 : (k > kmax ? kmax : k);
    (*t0)[j] = tbl[k];
    (*t1)[j] = tbl[k + 1];
    kd[j] = (double) k;
  }
  return kd;
}

#if RGLEAK_X86_DISPATCH

RGLEAK_AVX2 static inline v4d lookup_avx2(const double *tbl, v4d pos,
                                          intnat kmax, v4d *t0, v4d *t1)
{
  __m128i k = _mm256_cvttpd_epi32((__m256d) pos);
  k = _mm_max_epi32(_mm_min_epi32(k, _mm_set1_epi32((int) kmax)),
                    _mm_setzero_si128());
  *t0 = (v4d) _mm256_i32gather_pd(tbl, k, 8);
  *t1 = (v4d) _mm256_i32gather_pd(tbl + 1, k, 8);
  return (v4d) _mm256_cvtepi32_pd(k);
}

RGLEAK_AVX512 static inline v8d lookup_avx512(const double *tbl, v8d pos,
                                              intnat kmax, v8d *t0, v8d *t1)
{
  __m256i k = _mm512_cvttpd_epi32((__m512d) pos);
  k = _mm256_max_epi32(_mm256_min_epi32(k, _mm256_set1_epi32((int) kmax)),
                       _mm256_setzero_si256());
  *t0 = (v8d) _mm512_i32gather_pd(k, tbl, 8);
  *t1 = (v8d) _mm512_i32gather_pd(k, tbl + 1, 8);
  return (v8d) _mm512_cvtepi32_pd(k);
}

#endif /* RGLEAK_X86_DISPATCH */

/* ---------- exact fixed-point accumulator (Xsum) ----------

   A Kulisch-style superaccumulator: the running sum is held as an
   exact fixed-point integer in base 2^20, one signed int64 per limb,
   spanning the full double range (bit positions 0 .. ~2100 of the
   2^-1074-anchored frame) plus headroom limbs for intermediate
   magnitude growth.  Each add splits the 53-bit mantissa over at most
   four limbs (carry-save, signed), so a limb grows by < 2^20 per add
   and stays inside int64 for ~2^42 adds — far beyond any pair loop
   here.  Because integer addition is associative and commutative, the
   represented value after any sequence of adds and subtracts is a
   pure function of the term multiset: retracting one row of a pair
   sum and re-adding it at a new scale leaves bits identical to a cold
   rebuild, which is the property the delta estimator's equivalence
   battery pins down.

   Extraction first normalizes (carry-propagates) the limbs into a
   canonical representation — a pure function of the exact value — and
   then rounds once, to nearest-even, from the top 53 bits plus a round
   bit and a sticky bit, so the extracted double is the correctly
   rounded exact sum whatever the add order, job count or merge shape.
   Slot XS_LIMBS counts non-finite adds; any makes the extracted value
   NaN (caught by the Guard at the "delta" site). */

#define XS_W 20
#define XS_MASK ((uint64_t) ((1u << XS_W) - 1))
#define XS_LIMBS 110
#define XS_DIM (XS_LIMBS + 1)

static inline void xs_add1(int64_t *a, double v)
{
  union { double d; uint64_t u; } bits;
  uint64_t m;
  int e, q, r, bitpos;
  unsigned __int128 p;
  bits.d = v;
  e = (int) ((bits.u >> 52) & 0x7ff);
  m = bits.u & 0xfffffffffffffULL;
  if (e == 0x7ff) { /* NaN or infinity: poison the accumulator */
    a[XS_LIMBS] += 1;
    return;
  }
  if (e == 0) {
    if (m == 0) return; /* +-0.0 */
    bitpos = 0;         /* subnormal: m * 2^-1074 */
  } else {
    m |= 1ULL << 52;    /* normal: m * 2^(e - 1075) */
    bitpos = e - 1;
  }
  q = bitpos / XS_W;
  r = bitpos % XS_W;
  p = ((unsigned __int128) m) << r; /* <= 72 bits: four 20-bit pieces */
  if (bits.u >> 63) {
    a[q + 0] -= (int64_t) ((uint64_t) p & XS_MASK);
    a[q + 1] -= (int64_t) ((uint64_t) (p >> XS_W) & XS_MASK);
    a[q + 2] -= (int64_t) ((uint64_t) (p >> (2 * XS_W)) & XS_MASK);
    a[q + 3] -= (int64_t) ((uint64_t) (p >> (3 * XS_W)) & XS_MASK);
  } else {
    a[q + 0] += (int64_t) ((uint64_t) p & XS_MASK);
    a[q + 1] += (int64_t) ((uint64_t) (p >> XS_W) & XS_MASK);
    a[q + 2] += (int64_t) ((uint64_t) (p >> (2 * XS_W)) & XS_MASK);
    a[q + 3] += (int64_t) ((uint64_t) (p >> (3 * XS_W)) & XS_MASK);
  }
}

static void xs_carry(int64_t *t)
{
  intnat i;
  for (i = 0; i < XS_LIMBS - 1; i++) {
    int64_t c = t[i] >> XS_W; /* arithmetic shift: floor division */
    t[i] -= c << XS_W;
    t[i + 1] += c;
  }
}

/* Round the canonical non-negative limbs t[0..top] (t[top] != 0) to
   the nearest double, ties to even.  The top five limbs (<= 100 bits,
   >= 81 of them significant) hold the 53 kept bits and the round bit;
   every lower limb only feeds the sticky bit. */
static double xs_round(const int64_t *t, intnat top)
{
  unsigned __int128 w = 0, rest, half;
  intnat i, lo = top >= 4 ? top - 4 : 0;
  int sticky = 0, len = 0, shift;
  uint64_t m;
  /* 2^(20 * 105 - 1074) is beyond the double range */
  if (top >= 105) return HUGE_VAL;
  for (i = top; i >= lo; i--) w = (w << XS_W) | (uint64_t) t[i];
  for (i = lo - 1; i >= 0 && !sticky; i--) sticky = t[i] != 0;
  for (rest = w; rest != 0; rest >>= 1) len++;
  if (len <= 53) /* then lo = 0: the sum is a 53-bit integer times 2^-1074 */
    return ldexp((double) (uint64_t) w, -1074);
  shift = len - 53;
  m = (uint64_t) (w >> shift);
  rest = w & ((((unsigned __int128) 1) << shift) - 1);
  half = ((unsigned __int128) 1) << (shift - 1);
  if (rest > half || (rest == half && (sticky || (m & 1)))) m++;
  /* m <= 2^53 converts exactly; ldexp overflows to infinity on its own */
  return ldexp((double) m, shift + (int) (lo * XS_W) - 1074);
}

static double xs_value(const int64_t *a)
{
  int64_t t[XS_LIMBS];
  intnat i, top;
  int neg = 0;
  double v;
  if (a[XS_LIMBS] != 0) return (double) NAN;
  memcpy(t, a, sizeof t);
  xs_carry(t); /* canonical: limbs in [0, 2^20), signed top limb */
  if (t[XS_LIMBS - 1] < 0) {
    neg = 1;
    for (i = 0; i < XS_LIMBS; i++) t[i] = -t[i];
    xs_carry(t);
  }
  top = XS_LIMBS - 1;
  while (top > 0 && t[top] == 0) top--;
  v = t[top] == 0 ? 0.0 : xs_round(t, top);
  return neg ? -v : v;
}

CAMLprim value rgleak_xsum_dim(value unit)
{
  (void) unit;
  return Val_int(XS_DIM);
}

CAMLprim value rgleak_xsum_add(value vacc, value vx)
{
  int64_t *a = (int64_t *) Caml_ba_data_val(vacc);
  xs_add1(a, Double_val(vx));
  return Val_unit;
}

CAMLprim value rgleak_xsum_value(value vacc)
{
  return caml_copy_double(xs_value((const int64_t *) Caml_ba_data_val(vacc)));
}

/* ---------- exact block reduction into an Xsum ----------

   Feeding every term through xs_add1 costs a 128-bit shift and four
   limb read-modify-writes per term, all scalar.  Instead, terms are
   staged in a block of at most XB_CAP doubles and the block is reduced
   with the ExtractVector error-free transformation of Rump, Ogita and
   Oishi ("Accurate floating-point summation part I: faithful rounding",
   SIAM J. Sci. Comput. 31(1), 2008).  With sigma = 2^k and every
   |p_i| <= 2^-11 sigma,

     q_i = (sigma + p_i) - sigma,   p_i' = p_i - q_i

   are both exact (Sterbenz; the rounding error of a sum is a double),
   each q_i is a multiple of 2^(k-53) and |p_i'| <= 2^(k-53).  For
   XB_CAP <= 2^10 terms every partial sum of the q_i is a multiple of
   2^(k-53) below 2^k in magnitude, hence a double: tau = sum q_i is
   exact in plain floating point, in any order and lane split.  So
   sum p = tau + sum p' exactly; one xs_add1 takes tau, and the level
   repeats on p' (whose maximum shrinks by >= 2^40) until it is all
   zeros, typically after two levels.  The accumulator ends up holding
   exactly the same value as per-term adds would give.

   Non-finite terms are zeroed and counted in the poison slot before
   the first level, by an explicit finiteness test (vector max does not
   order NaN).  A block whose maximum is near the top of the
   double range (sigma would overflow) or deep in underflow falls back
   to per-term xs_add1.  Blocks live on the caller's stack, so bands
   on parallel domains share nothing. */

#define XB_CAP 1024 /* a multiple of the widest vector, and <= 2^10 */
#define XB_HI 0x1p1000
#define XB_LO 0x1p-900

/* 2^(e + 12) for normal mx in [2^e, 2^(e+1)): every |p_i| <= mx is
   below 2^-11 sigma */
static inline double xb_sigma(double mx)
{
  union { double d; uint64_t u; } b;
  b.d = mx;
  b.u = ((b.u >> 52) + 12) << 52;
  return b.d;
}

typedef struct {
  int64_t *acc;
  double p[XB_CAP];
} xblock;

/* ---------- the loops, stamped out per target ----------

   RGLEAK_KERNELS(NAME, TARGET, W, LOOKUP) defines one target's kernels
   on vectors of W lanes (W divides 8), all compiled for that target, so
   vectors pass by value without the ABI depending on the target:
   - interp_NAME: the interpolated covariance of the row cell at
     (xa, ya) with the W cells at (x[j], y[j]);
   - sum_NAME: rows [lo, hi) under the lane contract, an 8-pair block
     being 8 / W vectors;
   - flush_NAME: reduce p[0 .. n) exactly into the accumulator: the scan
     (zero and count the non-finite entries, find max |p|), then the
     extraction levels;
   - partners_NAME: stage the terms (sa * scale[b]) * w of partners
     [b, e) of one row from p[n] on, flushing whenever the next W might
     not fit; returns the new n. */

#define RGLEAK_KERNELS(NAME, TARGET, W, LOOKUP)                               \
  TARGET static inline __attribute__((always_inline)) VD(W) interp_##NAME(    \
      const double *tbl, double inv_dstep, intnat kmax, double xa, double ya, \
      const double *x, const double *y)                                       \
  {                                                                           \
    VD(W) dx = LOADV(W, x) - xa, dy = LOADV(W, y) - ya, pos, t0, t1, k;       \
    VD(W) d = dx * dx + dy * dy;                                              \
    int j;                                                                    \
    for (j = 0; j < W; j++) d[j] = sqrt(d[j]);                                \
    pos = d * inv_dstep;                                                      \
    k = LOOKUP(tbl, pos, kmax, &t0, &t1);                                     \
    return t0 + (pos - k) * (t1 - t0);                                        \
  }                                                                           \
                                                                              \
  TARGET static double sum_##NAME(const pair_geom *g, intnat lo, intnat hi)   \
  {                                                                           \
    VD(W) acc[RGLEAK_LANES / W] = { 0 };                                      \
    double s = 0.0, rem[RGLEAK_LANES] = { 0 }, l[RGLEAK_LANES];               \
    double px[RGLEAK_LANES], py[RGLEAK_LANES];                                \
    intnat a, t, h;                                                           \
    for (a = lo; a < hi; a++) {                                               \
      double xa = g->xs[a], ya = g->ys[a];                                    \
      const intnat *rowbase = g->base + g->ty[a] * g->nu;                     \
      for (t = 0; t < g->nu; t++) {                                           \
        intnat b = g->seg[t] > a + 1 ? g->seg[t] : a + 1;                     \
        intnat e = g->seg[t + 1];                                             \
        const double *tbl = g->cov + rowbase[t];                              \
        for (; b + RGLEAK_LANES <= e; b += RGLEAK_LANES)                      \
          _Pragma("GCC unroll 8") /* keeps acc in registers */                \
          for (h = 0; h < RGLEAK_LANES / W; h++)                              \
            acc[h] += interp_##NAME(tbl, g->inv_dstep, g->kmax, xa, ya,       \
                                    g->xs + b + h * W, g->ys + b + h * W);    \
        if (b < e) {                                                          \
          pad(px, RGLEAK_LANES, g->xs, b, e, xa);                             \
          pad(py, RGLEAK_LANES, g->ys, b, e, ya);                             \
          for (h = 0; h < RGLEAK_LANES / W; h++)                              \
            STOREV(W, l + h * W,                                              \
                   interp_##NAME(tbl, g->inv_dstep, g->kmax, xa, ya,          \
                                 px + h * W, py + h * W));                    \
          for (h = 0; b + h < e; h++) rem[h] += l[h];                         \
        }                                                                     \
      }                                                                       \
    }                                                                         \
    memcpy(l, acc, sizeof l);                                                 \
    for (h = 0; h < RGLEAK_LANES; h++) s += l[h] + rem[h];                    \
    return s;                                                                 \
  }                                                                           \
                                                                              \
  TARGET static void flush_##NAME(xblock *xb, intnat n)                       \
  {                                                                           \
    double *p = xb->p, l[RGLEAK_LANES], m, sigma;                             \
    intnat i, h;                                                              \
    VD(W) v, q, tau[RGLEAK_LANES / W];                                        \
    VL(W) ok, bad = { 0 }, mx[RGLEAK_LANES / W] = { 0 };                      \
    while (n % RGLEAK_LANES != 0) p[n++] = 0.0; /* zeros extract to 0 */     \
    for (i = 0; i < n; i += RGLEAK_LANES)                                     \
      for (h = 0; h < RGLEAK_LANES / W; h++) {                                \
        v = LOADV(W, p + i + h * W);                                          \
        ok = ((VL(W)) v & INT64_MAX) < 0x7ff0000000000000LL; /* below Inf */ \
        bad += ok + 1;                                                        \
        v = (VD(W)) ((VL(W)) v & ok);                                         \
        STOREV(W, p + i + h * W, v);                                          \
        MAXABS(W, mx[h], v);                                                  \
      }                                                                       \
    for (h = 0; h < W; h++) xb->acc[XS_LIMBS] += bad[h];                      \
    for (;;) {                                                                \
      memcpy(l, mx, sizeof l); /* the bit patterns of the lanes' max |p| */   \
      for (m = 0.0, h = 0; h < RGLEAK_LANES; h++) m = l[h] > m ? l[h] : m;    \
      if (m == 0.0) break;                                                    \
      if (m >= XB_HI || m < XB_LO) {                                          \
        for (i = 0; i < n; i++) xs_add1(xb->acc, p[i]);                       \
        break;                                                                \
      }                                                                       \
      sigma = xb_sigma(m);                                                    \
      memset(tau, 0, sizeof tau);                                             \
      memset(mx, 0, sizeof mx);                                               \
      for (i = 0; i < n; i += RGLEAK_LANES)                                   \
        for (h = 0; h < RGLEAK_LANES / W; h++) {                              \
          v = LOADV(W, p + i + h * W);                                        \
          q = (sigma + v) - sigma;                                            \
          v -= q;                                                             \
          STOREV(W, p + i + h * W, v);                                        \
          tau[h] += q;                                                        \
          MAXABS(W, mx[h], v);                                                \
        }                                                                     \
      memcpy(l, tau, sizeof l);                                               \
      for (m = 0.0, h = 0; h < RGLEAK_LANES; h++) m += l[h]; /* exact */      \
      xs_add1(xb->acc, m);                                                    \
    }                                                                         \
  }                                                                           \
                                                                              \
  TARGET static intnat partners_##NAME(xblock *xb, intnat n,                  \
                                       const pair_geom *g, const double *tbl, \
                                       double xa, double ya, double sa,       \
                                       intnat b, intnat e)                    \
  {                                                                           \
    const double *xs = g->xs, *ys = g->ys, *scale = g->scale, *x, *y, *sc;    \
    double inv_dstep = g->inv_dstep, px[W], py[W], ps[W];                     \
    intnat kmax = g->kmax;                                                    \
    for (; b < e; b += W) {                                                   \
      x = xs + b, y = ys + b, sc = scale + b;                                 \
      if (b + W > e) {                                                        \
        x = pad(px, W, xs, b, e, xa);                                         \
        y = pad(py, W, ys, b, e, ya);                                         \
        sc = pad(ps, W, scale, b, e, 0.0);                                    \
      }                                                                       \
      STOREV(W, xb->p + n, (sa * LOADV(W, sc))                                \
                               * interp_##NAME(tbl, inv_dstep, kmax, xa, ya,  \
                                               x, y));                        \
      n += e - b < W ? e - b : W;                                             \
      if (n > XB_CAP - W) {                                                   \
        flush_##NAME(xb, n);                                                  \
        n = 0;                                                                \
      }                                                                       \
    }                                                                         \
    return n;                                                                 \
  }                                                                           \
                                                                              \
  static const kernels kernels_##NAME = { sum_##NAME, partners_##NAME,        \
                                          flush_##NAME };

typedef struct {
  double (*sum)(const pair_geom *, intnat, intnat);
  intnat (*partners)(xblock *, intnat, const pair_geom *, const double *,
                     double, double, double, intnat, intnat);
  void (*flush)(xblock *, intnat);
} kernels;

RGLEAK_KERNELS(portable, , 2, lookup_portable)
#if RGLEAK_X86_DISPATCH
RGLEAK_KERNELS(avx2, RGLEAK_AVX2, 4, lookup_avx2)
RGLEAK_KERNELS(avx512, RGLEAK_AVX512, 8, lookup_avx512)
#endif

static int isa_supported(int isa)
{
  switch (isa) {
  case RGLEAK_ISA_SCALAR:
    return 1;
#if RGLEAK_X86_DISPATCH
  case RGLEAK_ISA_AVX2:
    return __builtin_cpu_supports("avx2") != 0;
  case RGLEAK_ISA_AVX512:
    return __builtin_cpu_supports("avx512f")
           && __builtin_cpu_supports("avx512dq")
           && __builtin_cpu_supports("avx512vl");
#endif
  default:
    return 0;
  }
}

static int best_isa(void)
{
  /* Idempotent, so the unsynchronized cache is benign across domains. */
  static int cached = 0;
  int isa = cached;
  if (isa == 0) {
    isa = RGLEAK_ISA_SCALAR;
    if (isa_supported(RGLEAK_ISA_AVX2)) isa = RGLEAK_ISA_AVX2;
    if (isa_supported(RGLEAK_ISA_AVX512)) isa = RGLEAK_ISA_AVX512;
    cached = isa;
  }
  return isa;
}

/* The kernels a request runs on: Auto means the best ISA, and an
   unsupported request falls back to scalar (same bits by contract). */
static const kernels *pick_isa(int isa)
{
  if (isa == RGLEAK_ISA_AUTO) isa = best_isa();
#if RGLEAK_X86_DISPATCH
  if (isa == RGLEAK_ISA_AVX2 && isa_supported(isa)) return &kernels_avx2;
  if (isa == RGLEAK_ISA_AVX512 && isa_supported(isa)) return &kernels_avx512;
#endif
  return &kernels_portable;
}

CAMLprim value rgleak_pair_isa_supported(value visa)
{
  return Val_bool(isa_supported(Int_val(visa)));
}

CAMLprim value rgleak_pair_best_isa(value unit)
{
  (void) unit;
  return Val_int(best_isa());
}

static void geom_of(pair_geom *g, value vxs, value vys, value vty, value vseg,
                    value vbase, value vcov, const double *scale, value vnu,
                    value vinv, value vkmax)
{
  g->xs = (const double *) Caml_ba_data_val(vxs);
  g->ys = (const double *) Caml_ba_data_val(vys);
  g->ty = (const intnat *) Caml_ba_data_val(vty);
  g->seg = (const intnat *) Caml_ba_data_val(vseg);
  g->base = (const intnat *) Caml_ba_data_val(vbase);
  g->cov = (const double *) Caml_ba_data_val(vcov);
  g->scale = scale;
  g->nu = Long_val(vnu);
  g->inv_dstep = Double_val(vinv);
  g->kmax = Long_val(vkmax);
}

CAMLprim value rgleak_pair_sum(value vxs, value vys, value vty, value vseg,
                               value vbase, value vcov, value vnu,
                               value vinv, value vkmax, value vlo, value vhi,
                               value visa)
{
  pair_geom g;
  geom_of(&g, vxs, vys, vty, vseg, vbase, vcov, NULL, vnu, vinv, vkmax);
  return caml_copy_double(
      pick_isa(Int_val(visa))->sum(&g, Long_val(vlo), Long_val(vhi)));
}

CAMLprim value rgleak_pair_sum_bc(value *argv, int argn)
{
  (void) argn;
  return rgleak_pair_sum(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], argv[6], argv[7], argv[8], argv[9],
                         argv[10], argv[11]);
}

CAMLprim value rgleak_xsum_add_block(value vacc, value vterms, value visa)
{
  const kernels *k = pick_isa(Int_val(visa));
  xblock xb;
  intnat len = Wosize_val(vterms) / Double_wosize, i = 0, n;
  xb.acc = (int64_t *) Caml_ba_data_val(vacc);
  while (i < len) {
    for (n = 0; i < len && n < XB_CAP; i++)
      xb.p[n++] = Double_flat_field(vterms, i);
    k->flush(&xb, n);
  }
  return Val_unit;
}

/* ---------- scaled pair accumulation into an Xsum ----------

   Same traversal and per-pair interpolation arithmetic as the summing
   kernel above, but each pair's table value is weighted by the product
   of the two cells' scale factors — (scale[a] * scale[b]) * w, exactly
   that association — and accumulated exactly through the block
   reduction.  No lane contract is needed: the superaccumulator makes
   the result independent of iteration order, block boundaries and ISA
   by construction.

   rgleak_pair_acc covers rows [lo, hi) (cold build / band task);
   rgleak_pair_acc_row covers every partner of one row at an explicit
   row scale [srow] (pass -old_scale then +new_scale to retarget one
   cell).  Both compute identical per-pair term doubles: the distance
   is symmetric, the type-pair table offsets are symmetric by
   construction, and IEEE multiplication commutes. */

CAMLprim value rgleak_pair_acc(value vxs, value vys, value vty, value vseg,
                               value vbase, value vcov, value vscale,
                               value vacc, value vnu, value vinv,
                               value vkmax, value vlo, value vhi, value visa)
{
  const kernels *k = pick_isa(Int_val(visa));
  pair_geom g;
  xblock xb;
  intnat a, t, hi = Long_val(vhi), n = 0;
  geom_of(&g, vxs, vys, vty, vseg, vbase, vcov,
          (const double *) Caml_ba_data_val(vscale), vnu, vinv, vkmax);
  xb.acc = (int64_t *) Caml_ba_data_val(vacc);
  for (a = Long_val(vlo); a < hi; a++) {
    const intnat *rowbase = g.base + g.ty[a] * g.nu;
    for (t = 0; t < g.nu; t++)
      n = k->partners(&xb, n, &g, g.cov + rowbase[t], g.xs[a], g.ys[a],
                      g.scale[a], g.seg[t] > a + 1 ? g.seg[t] : a + 1,
                      g.seg[t + 1]);
  }
  k->flush(&xb, n);
  return Val_unit;
}

CAMLprim value rgleak_pair_acc_bc(value *argv, int argn)
{
  (void) argn;
  return rgleak_pair_acc(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], argv[6], argv[7], argv[8], argv[9],
                         argv[10], argv[11], argv[12], argv[13]);
}

CAMLprim value rgleak_pair_acc_row(value vxs, value vys, value vty,
                                   value vseg, value vbase, value vcov,
                                   value vscale, value vacc, value vnu,
                                   value vinv, value vkmax, value vrow,
                                   value vsrow, value visa)
{
  const kernels *k = pick_isa(Int_val(visa));
  pair_geom g;
  xblock xb;
  intnat t, c = Long_val(vrow), n = 0;
  double sc = Double_val(vsrow);
  geom_of(&g, vxs, vys, vty, vseg, vbase, vcov,
          (const double *) Caml_ba_data_val(vscale), vnu, vinv, vkmax);
  xb.acc = (int64_t *) Caml_ba_data_val(vacc);
  for (t = 0; t < g.nu; t++) {
    const double *tbl = g.cov + g.base[g.ty[c] * g.nu + t];
    intnat s = g.seg[t], e = g.seg[t + 1];
    if (c >= s && c < e) { /* skip the row itself */
      n = k->partners(&xb, n, &g, tbl, g.xs[c], g.ys[c], sc, s, c);
      s = c + 1;
    }
    n = k->partners(&xb, n, &g, tbl, g.xs[c], g.ys[c], sc, s, e);
  }
  k->flush(&xb, n);
  return Val_unit;
}

CAMLprim value rgleak_pair_acc_row_bc(value *argv, int argn)
{
  (void) argn;
  return rgleak_pair_acc_row(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6], argv[7], argv[8], argv[9],
                             argv[10], argv[11], argv[12], argv[13]);
}
