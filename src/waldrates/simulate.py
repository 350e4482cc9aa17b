"""Seeded Monte Carlo engine for Wald-statistic divergence experiments.

Estimator draws follow the root-T asymptotic model: theta_hat = theta_bar +
T^{-1/2} L z with L the Cholesky factor of V and z standard normal.  Every
(T, replication) pair draws from its own substream, the stream of
``np.random.default_rng([seed, T, rep])``, so results are bit-identical
across runs and independent of scheduling.  The draw stage runs NumPy's
SeedSequence hash, PCG64 and the fast path of its ziggurat normal sampler
for every rep of a T at once, on arrays.  A rep with a sample off that fast
path refills its row from NumPy's own generator, seeded from the same
words, and one fast-path rep per call is drawn by NumPy as well and
compared, so the draws are ``default_rng``'s bit for bit (NumPy's
stream-compatibility policy, NEP 19, freezes the hash and PCG64 but not the
sampler; the tests compare against ``default_rng``).

Both experiments run one batched kernel per T over every replication:
draw each replication from its substream; evaluate g and the exact symbolic
Jacobian, compiled to floats once per system, for the whole stack; form each
draw's q x q inner matrix A = G V_hat G' once; then run one cyclic Jacobi,
which rotates a pair only in the draws that need it, over every
block-scaled copy diag(d) A diag(d) of every draw, with D g rotated
alongside, which gives each scaling's eigenvalues and W = T
sum_i (J' D g)_i^2 / lambda_i without a solve or an inverse.  Jacobi keeps
the small eigenvalues of a well-scaled matrix to relative accuracy (Demmel &
Veselic 1992); a draw whose smallest eigenvalue is not > 0 is reported as
singular rather than regularised away.  ``wald_statistic`` is one call of
the same kernel.  The divergence experiment compiles the echelonized
restrictions S g, with the report's exact S applied before any float is
formed, so the cancellation between rows that S performs is exact; W is the
same for S g as for g.  The scalar cyclic Jacobi solver
``symmetric_eigenvalues`` shares no code with the batched kernel and stays
the independent oracle that ``verify`` and the tests compare against.
"""

from __future__ import annotations

import binascii
import functools
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from .rates import Covariance, NonSpdError, RateReport, _ray_degrees, min_degree_generic
from .restriction import RestrictionSystem, jacobian, recenter, transform


class CholeskyFailureError(NonSpdError):
    """Covariance (or perturbed covariance) is not usable as SPD; a
    NonSpdError, so that the command line exits 3 on it without importing
    this module."""


class SingularMetricError(ArithmeticError):
    """The q x q inner Wald matrix of a draw is singular: its smallest
    eigenvalue is not > 0."""


class JacobiConvergenceError(ArithmeticError):
    """Cyclic Jacobi sweeps did not reach the off-diagonal tolerance."""


class ExcessiveSingularDrawsError(ArithmeticError):
    """More than the tolerated fraction of draws had singular inner matrices."""


class GenericCovarianceError(ValueError):
    """The covariance shows no degree degeneracy, so no vanishing is predicted."""


@dataclass(frozen=True)
class EstimatorModel:
    """Asymptotic estimator model: null point, covariance, and V-hat mode.

    ``vhat_mode`` is ``"exact"`` (V-hat = V) or ``"perturbed"`` (V-hat =
    V + scale * T^{-1/2} * W for a random symmetric W, re-drawn up to ten
    times until SPD).
    """

    theta_bar: np.ndarray
    V: np.ndarray
    vhat_mode: str = "exact"
    vhat_scale: float = 0.0

    def __post_init__(self):
        theta = np.asarray(self.theta_bar, dtype=float)
        V = np.asarray(self.V, dtype=float)
        object.__setattr__(self, "theta_bar", theta)
        object.__setattr__(self, "V", V)
        if V.shape != (theta.size, theta.size):
            raise ValueError("V must be p x p for a p-dimensional theta_bar")
        if not np.allclose(V, V.T, rtol=0, atol=1e-12 * max(1.0, np.abs(V).max())):
            raise CholeskyFailureError("V is not symmetric")
        if self.vhat_mode not in ("exact", "perturbed"):
            raise ValueError(f"unknown vhat_mode {self.vhat_mode!r}")
        if not math.isfinite(self.vhat_scale):
            raise ValueError(f"vhat_scale must be finite, got {self.vhat_scale!r}")
        try:
            L = np.linalg.cholesky(V)
        except np.linalg.LinAlgError as exc:
            raise CholeskyFailureError("V has no Cholesky factorisation") from exc
        if (np.diag(L) ** 2 <= 1e-12).any():
            raise CholeskyFailureError("V has a Cholesky pivot below tolerance")
        object.__setattr__(self, "_chol", L)

    @property
    def p(self) -> int:
        return self.theta_bar.size


# NumPy's SeedSequence hash constants (pool of 4 uint32 words), from
# numpy/random/bit_generator.pyx; NEP 19 freezes the hash, so
# default_rng([seed, T, rep]) streams never change under them.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(n: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, low word first; 0 is [0]."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_chain(init: int, mult: int):
    """SeedSequence's hashmix step, with its multiplier advancing on every call."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _substream_seeds(seed: int, T: int, reps: int) -> np.ndarray:
    """``SeedSequence([seed, T, rep]).generate_state(4, uint64)`` for every rep.

    Runs SeedSequence's hash over all reps at once in uint32 arithmetic, with
    the entropy words assembled as NumPy assembles them: a seed or T of 2^32
    or more gives several words, the rep (below 2^32) one.  Shape (reps, 4).
    """
    # here, not at import: import waldrates must not load numpy.random
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    words = _entropy_words(seed) + _entropy_words(T)
    entropy = [np.full(reps, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(reps, dtype=np.uint32))

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    hashmix = _hash_chain(_INIT_A, _MULT_A)
    zero = np.zeros(reps, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    generate = _hash_chain(_INIT_B, _MULT_B)
    halves = [generate(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # uint64 word k is halves[2k] | halves[2k + 1] << 32 (little-endian view)
    return np.stack([halves[2 * k] | (halves[2 * k + 1] << np.uint64(32))
                     for k in range(4)], axis=1)


class _SeedWords:
    """A row of ``_substream_seeds`` as an ``ISeedSequence``: NumPy's PCG64
    seeds itself from ``generate_state(4, uint64)``, which is that row."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _stream(words: np.ndarray) -> np.random.Generator:
    """The generator of ``default_rng([seed, T, rep])``, from that rep's seed words."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


# PCG64's LCG multiplier (numpy/random/src/pcg64/pcg64.h), as uint64 limbs,
# the low limb also in 32-bit halves for the high word of a 64 x 64 product
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_PCG_MULT_LO_HALVES = (np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32))
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)

# NumPy's 256-layer ziggurat tables ki_double (uint64) and wi_double (float64)
# from numpy/random/src/distributions/ziggurat_constants.h, as base64 of
# their little-endian bytes; TestSubstreams pins both against the installed
# NumPy's sampler.
_ZIGGURAT_KI = np.frombuffer(binascii.a2b_base64(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL"
    "/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsH"
    "qZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9"
    "DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8A"
    "meyPTbXODwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLo"
    "yKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiB"
    "O90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnh"
    "DwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8A"
    "XAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0"
    "5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBB"
    "x+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLq"
    "DwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A"
    "+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbx"
    "Kf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7sDwAohTV3"
    "E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0PAMgspAaU7Q8ABLeFK6Tt"
    "DwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A"
    "4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGX"
    "WAtq7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR"
    "mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu"
    "DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A"
    "5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4A"
    "nlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqi"
    "Ce4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/t"
    "DwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8A"
    "wTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKF"
    "yeFv6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/W"
    "xekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn"
    "DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A"
    "/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIIC"
    "Lvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u"
    "0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oa"
    "DwA="), dtype="<u8")
_ZIGGURAT_WI = np.frombuffer(binascii.a2b_base64(
    "edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00AnDx0cnRaL6ydPMPV"
    "TC1IMp88rbuOJzJNoDxDXQI7BfWgPHc2QZemkqE89Rp6j6InojyA2GM4LrWiPPWRV8A/PKM8L7GiwZ69ozxVm/+N"
    "7zmkPKf+PTa7saQ8dNMaYnUlpTyWzgengJWlPOp+2c8xAqY8PXyjYdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2Y"
    "pzxD9UatRfinPHcKQ1PMVag8mnZ7nmSxqDyYz06pLgupPOoeLIJHY6k8RsU4jsm5qTwsp6TczA6qPFnNd21nYqo8"
    "MBYQbq20qjycbBNtsQWrPCl6QoeEVas8Op9Sjjakqzwygr8q1vGrPPNOWflwPqw8YTsypROKrDyLJnL+ydSsPEi3"
    "gA6fHq08EB/kKZ1nrTzDuCMAzq+tPFN28ak69608/u3Stes9rjwAb3oz6YOuPM6C+b06ya48JmLwhOcNrzyI9thU"
    "9lGvPK7Xh55tla88rC76fVPYrzzsNELgVg2wPJqPOfVALrA8/KUWnupOsDwQoHJbVm+wPAv0cZCGj7A8E2G8hH2v"
    "sDx/zEtmPc+wPGsIFkvI7rA87hWVMiAOsTy+DzEHRy2xPEGRjp8+TLE8HiDEvwhrsTw02ngap4mxPIht7lEbqLE8"
    "yyr4+GbGsTwu1OCTi+SxPJ+gQJmKArI86cbEcmUgsjwfw+l9HT6yPPtrqQy0W7I8f9MdZip5sjwb1xnHgZayPNou"
    "uGK7s7I8U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8MLn04Y4nszyhXiZwRESzPNVSyrriYLM8algFvmp9szxksrJv"
    "3ZmzPAM9uL87trM84B1WmIbSszyDWnLevu6zPHSe4HHlCrQ8XXSmLfsmtDykMDzoAEO0PF3HynP3XrQ8NsNmnt96"
    "tDwvj0gyupa0PF1BAvaHsrQ83BGzrEnOtDwFpjgWAOq0PGJVXu+rBbU8WosK8k0htTxPZmrV5jy1PMiyG053WLU8"
    "eF9VDgB0tTwUhQ7GgY+1PFkbJCP9qrU8PXN90XLGtTzTjC974+G1PDhen8hP/bU8wx+jYLgYtjyisKLoHTS2PAsm"
    "twSBT7Y8cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhhYti2PFT4YTHE87Y862iL9ycPtzzGFGlR"
    "jiq3PNzucNz3Rbc8H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7ItvzTM+3POfec4zW6rc8H+qGpGcG"
    "uDx2hsjaACK4PBWfic6iPbg8vfXRH05ZuDzFfnpvA3W4PC33R1/DkLg8Q8AFko6suDycDKGrZci4PCdqRFFJ5Lg8"
    "j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8iqIDeWJUuTzu1XC7jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0"
    "byvs4bk8StL6JnL+uTySNvk5DBu6PFvIoiG7N7o8iLsLnn9UujykqUpyWnG6PD0xoGRMjro8CPGfPlarujzO9VrN"
    "eMi6PDazi+G05bo8GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8Az3OQbVbuzwniT+5fXm7PDz35fFkl7s8biWF22u1"
    "uzyiwC5rk9O7PIOugZvc8bs8oBbsbEgQvDwtevDl1y68PBwNbhOMTbw8BYfsCGZsvDwXpuvgZou8PKuiNr2Pqrw8"
    "kNY7x+HJvDw34GgwXum8PG6PizIGCb08IO83ENsovTxHxjMV3ki9PCPx55YQab08pfvX9HOJvTxwbiCZCaq9PA5J"
    "/PjSyr08Ny5SldHrvTwc0kn7Bg2+PPZG6sR0Lr48iNHBmRxQvjwl/pcvAHK+PAq/KkshlL48CG/3wIG2vjw6pxB2"
    "I9m+PKnsAWEI/L48IVPCijIfvzxtTbcPpEK/PGgBySBfZr88gpeJBGaKvzy/InEYu66/PIXnL9Jg0788C/YYwVn4"
    "vzx1oNNH1A7APEfJjwKoIcA8qwKpg6k0wDzH9T5O2kfAPH6zrfY7W8A8aCanI9BuwDwXLmOPmILAPFSi6AiXlsA8"
    "xMBxdc2qwDxI1O7RPb/APDA9qjTq08A8k2URz9TowDy2n6bv//3APEFwIARuE8E8NV27myEpwTxtCcRpHT/BPDsu"
    "YEhkVcE88+6dO/lrwTxhEtJ034LBPKzrTlYamsE8ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6wTyBzASd"
    "vBPCPO7Tb3pHLcI8JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipTN7TCPJfbljHU0MI89XipsQ3u"
    "wjzurlbS7AvDPKOkaF57KsM8oxKuBcRJwzxAqDN60mnDPApBVpKzisM8+oiucHWswzymBBezJ8/DPHX0YKrb8sM8"
    "2uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8vEOcdWKNxDwnWmudc7fEPAKJzQ0l48Q8QazpU58QxTxCfjpSEUDFPBvk"
    "SqmxccU82Y1xi8ClxTz+0DokitzFPEwehs9pFsY86moAe85TxjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglW"
    "lXnHPIzO1vQt1Mc8NPIpBQM5yDwUfKq/D6vIPJZEb5TgLsk8q1dAAe7LyTxad5R43I/KPLH9eDgfmMs8M60JgrQ7"
    "zTw="), dtype="<f8")


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
                inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step, state * MULT + inc mod 2^128, on uint64 limbs."""
    # the high word of lo * MULT_LO, from the products of 32-bit halves
    a0, a1 = lo & _LOW32, lo >> _SHIFT32
    b0, b1 = _PCG_MULT_LO_HALVES
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _SHIFT32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    product_hi = a1 * b1 + (cross0 >> _SHIFT32) + (cross1 >> _SHIFT32) + (mid >> _SHIFT32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    # (new_lo < inc_lo) is the carry out of the low word
    new_hi = product_hi + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg64_seed(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """PCG64's ``srandom`` for every row of ``seeds``: (state_hi, state_lo,
    inc_hi, inc_lo) as uint64 arrays.

    A row is the ``generate_state(4, uint64)`` answer PCG64 seeds itself
    from: words 0-1 the initial state, words 2-3 the stream selector, high
    word first.  inc = 2 * selector + 1, and the state is
    (inc + initial state) * MULT + inc.
    """
    s_hi, s_lo, sel_hi, sel_lo = seeds.T
    inc_hi = sel_hi << np.uint64(1) | sel_lo >> np.uint64(63)
    inc_lo = sel_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_words(state: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """The next n ``next_uint64`` outputs of every rep's PCG64, shape (reps, n).

    Each output steps the state, then returns XSL-RR of it: the xor of its
    two halves rotated right by its top six bits.
    """
    hi, lo, inc_hi, inc_lo = state
    words = np.empty((hi.size, n), dtype=np.uint64)
    for k in range(n):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        words[:, k] = x >> rot | x << (-rot & np.uint64(63))
    return words


def _ziggurat_fast_path(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``random_standard_normal``'s fast path on each word, and where it accepts.

    The low 8 bits pick the layer idx, bit 8 is the sign and bits 9-60 are
    rabs; the sample is +-rabs * wi[idx], accepted iff rabs < ki[idx].
    NumPy turns a rejected word into a sample through more words, which
    this does not follow.
    """
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = words >> np.uint64(9) & np.uint64(0xFFFFFFFFFFFFF)
    x = rabs * np.take(_ZIGGURAT_WI, idx)
    # x >= +0.0, so setting its sign bit from bit 8 negates it there, as -x would
    bits = x.view(np.uint64)
    bits |= (words & np.uint64(0x100)) << np.uint64(55)
    return x, rabs < np.take(_ZIGGURAT_KI, idx)


def _perturbed_vhat(model: EstimatorModel, T: int, W: np.ndarray) -> np.ndarray:
    """V + scale T^{-1/2} (W + W')/2 for one p x p W or a stack of them."""
    W = (W + np.swapaxes(W, -1, -2)) / 2.0
    return model.V + model.vhat_scale / math.sqrt(T) * W


def draw_estimate(model: EstimatorModel, T: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """One estimator draw: theta_hat and the covariance estimate V_hat.

    In perturbed mode V_hat is re-drawn until it passes Cholesky, at most 10
    times.  ``_draw_stack`` draws the same values for a whole stack of reps.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    z = rng.standard_normal(model.p)
    theta_hat = model.theta_bar + model._chol @ z / math.sqrt(T)
    if model.vhat_mode == "exact":
        return theta_hat, model.V
    for _ in range(10):
        V_hat = _perturbed_vhat(model, T, rng.standard_normal((model.p, model.p)))
        if not _cholesky_fails(V_hat[None])[0]:
            return theta_hat, V_hat
    raise CholeskyFailureError("perturbed V_hat stayed non-SPD after 10 retries")


def _by_position(lists: list[list[tuple]]) -> tuple[tuple[np.ndarray, ...], ...]:
    """For each position s, the indices of the lists longer than s and the
    fields of their s-th elements, as arrays."""
    depth = max(map(len, lists), default=0)
    return tuple(tuple(np.array(field) for field in
                       zip(*[(i, *items[s]) for i, items in enumerate(lists) if len(items) > s]))
                 for s in range(depth))


class CompiledSystem:
    """Float evaluators for g and its Jacobian, compiled once per system.

    The Jacobian is the exact symbolic derivative converted to floats, so
    simulation carries no finite-difference error.  Both evaluators accept
    one point (shape (p,)) or a stack of points (shape (N, p)) and run a
    plan compiled here, one for g and one for G, whose every step is a numpy
    operation over the whole stack.  A monomial is the product of its
    factors in variable order: x_j itself for a variable whose exponents in
    the block are 0 or 1, else the column of the power table
    ``stack[:, j:j+1] ** exps[:, j]`` over the monomials of g and G, which
    ``power_tables`` builds once for both evaluators.  Each
    entry starts at its constant term and adds its other nonzero terms in
    monomial order.  Every float is therefore the one the dense sum of
    every coefficient over every monomial gives, wherever that sum is
    finite, and a point gives the same bits alone as inside a stack.  A
    monomial that overflows reaches only the entries where it has a nonzero
    coefficient.
    """

    __slots__ = ("p", "q", "_exps", "_g_plan", "_G_plan", "_powered")

    def __init__(self, system: RestrictionSystem):
        self.p = system.p
        self.q = system.q
        G = jacobian(system)
        G_polys = [G.entry(i, j) for i in range(self.q) for j in range(self.p)]
        monos = sorted({mono for poly in (*system.g, *G_polys) for mono in poly.terms})
        self._exps = np.array(monos, dtype=np.int64).reshape(len(monos), self.p)
        column = {mono: k for k, mono in enumerate(monos)}
        self._g_plan = self._plan(system.g, column)
        self._G_plan = self._plan(G_polys, column)
        self._powered = tuple(sorted({*self._g_plan[0], *self._G_plan[0]}))

    def _plan(self, polys: Sequence, column: dict) -> tuple:
        """The steps that evaluate one block of entries (g, or G row by row):
        the variables with an exponent >= 2, whose factors come from the
        power table; each monomial's first factor, as a column of the
        sources; per later factor, the monomials and their source columns;
        each entry's constant term; and per term position, the entries,
        their monomials and their coefficients."""
        constant = (0,) * self.p
        entries = [[(mono, float(coeff)) for mono, coeff in sorted(poly.terms.items())]
                   for poly in polys]
        # 0.0 + c, as the entry's sum starts: an underflowed -0.0 becomes 0.0
        const = np.array([0.0 + dict(terms).get(constant, 0.0) for terms in entries])
        entries = [[(mono, coeff) for mono, coeff in terms if mono != constant and coeff != 0.0]
                   for terms in entries]
        used = sorted({mono for terms in entries for mono, _ in terms})
        powered = tuple(sorted({j for mono in used for j, e in enumerate(mono) if e >= 2}))
        table = {j: self.p + slot * len(column) for slot, j in enumerate(powered)}
        factors = [[(table[j] + column[mono],) if j in table else (j,)
                    for j, e in enumerate(mono) if e] for mono in used]
        local = {mono: k for k, mono in enumerate(used)}
        return (powered, np.array([f[0][0] for f in factors], dtype=np.intp),
                _by_position([f[1:] for f in factors]), const,
                _by_position([[(local[mono], coeff) for mono, coeff in terms]
                              for terms in entries]))

    def power_tables(self, stack: np.ndarray) -> dict[int, np.ndarray]:
        """The power table of each variable g or G raises to a power >= 2,
        for an (N, p) stack: pass it to ``g_at`` and ``jacobian_at`` of the
        same stack to build it once."""
        return {j: stack[:, j:j + 1] ** self._exps[:, j] for j in self._powered}

    def _evaluate(self, theta, plan: tuple, tables: dict | None) -> np.ndarray:
        powered, first, factors, const, terms = plan
        points = np.asarray(theta, dtype=float)
        stack = points.reshape(-1, self.p)
        sources = stack
        if powered:
            tables = self.power_tables(stack) if tables is None else tables
            sources = np.concatenate([stack] + [tables[j] for j in powered], axis=1)
        monos = sources[:, first]
        for k, column in factors:
            monos[:, k] *= sources[:, column]
        out = np.empty((stack.shape[0], const.size))
        out[:] = const
        for rows, k, coeff in terms:
            out[:, rows] += monos[:, k] * coeff
        return out if points.ndim == 2 else out[0]

    def g_at(self, theta: np.ndarray, tables: dict | None = None) -> np.ndarray:
        """g at one point, shape (q,), or at a stack of points, shape (N, q)."""
        return self._evaluate(theta, self._g_plan, tables)

    def jacobian_at(self, theta: np.ndarray, tables: dict | None = None) -> np.ndarray:
        """G at one point, shape (q, p), or at a stack, shape (N, q, p)."""
        values = self._evaluate(theta, self._G_plan, tables)
        return values.reshape(values.shape[:-1] + (self.q, self.p))


def _cholesky_fails(stack: np.ndarray) -> np.ndarray:
    """The mask of the members of an (N, n, n) stack that fail Cholesky.

    One batched factorisation; only if it raises is each matrix factorised
    alone.
    """
    failed = np.zeros(len(stack), dtype=bool)
    try:
        np.linalg.cholesky(stack)
        return failed
    except np.linalg.LinAlgError:
        pass
    for i, matrix in enumerate(stack):
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            failed[i] = True
    return failed


#: Sweeps the batched Jacobi kernel may rotate in before it gives up; a
#: product-pairs stack needs 3 or 4.  LAPACK's one-sided Jacobi (dgesvj)
#: caps its sweeps at the same 30.
JACOBI_MAX_SWEEPS = 30

_EPS = float(np.finfo(float).eps)


def _rotate(x: np.ndarray, y: np.ndarray, c: np.ndarray, s: np.ndarray,
            spare: np.ndarray, tmp: np.ndarray) -> None:
    """One plane rotation of two arrays: c x - s y into ``spare``, s x + c y over ``y``."""
    np.subtract(np.multiply(c, x, out=spare), np.multiply(s, y, out=tmp), out=spare)
    np.add(np.multiply(s, x, out=tmp), np.multiply(c, y, out=y), out=y)


def _jacobi_stack(A: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Cyclic Jacobi over a stack of symmetric matrices, every draw at once.

    ``A`` is (q, q, M): entry a_ij of every matrix is one (M,) array.  Only
    the upper triangle is rotated; a matrix is non-finite when any of its
    q^2 entries is.  ``v`` is (q, n), one vector for each of the first n <=
    M matrices (n may be 0), rotated alongside its matrix, so it comes back
    as J' v for the matrix's eigenvectors J.  Neither is written to: the
    upper triangle and the rows of v are copied once and rotated in place,
    through temporaries allocated once per call.  Returns the diagonal at
    convergence, (q, M) and unsorted, the rotated v, and the number of
    sweeps that rotated.

    A matrix rotates pair (i, j) only while |a_ij| > eps sqrt(|a_ii a_jj|),
    the relative stopping rule of Demmel & Veselic (1992); the absolute
    value lets a rounded non-positive diagonal rotate too.  Each pair is one
    rotation over the whole stack.  Where a matrix rotates, t is the smaller
    root of t^2 + 2 zeta t - 1 = 0, zeta = (a_jj - a_ii) / (2 a_ij); where
    it does not, t = 0, which leaves its entries as they are.  When every
    matrix rotates, those masks are skipped.  A rotating matrix does the
    same arithmetic either way, so it gets the same bits alone as inside
    any stack.  A matrix with a non-finite entry, or a non-finite v, does
    not rotate and comes back NaN.  The sweeps stop when one rotates
    nothing; more than ``JACOBI_MAX_SWEEPS`` rotating sweeps raise
    JacobiConvergenceError.
    """
    q, M, n = A.shape[0], A.shape[2], v.shape[1]
    bad = ~np.isfinite(A).all(axis=(0, 1))
    bad[:n] |= ~np.isfinite(v).all(axis=0)
    if bad.any():
        A, v = np.where(bad, 0.0, A), np.where(bad[:n], 0.0, v)
    a = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            a[i][j] = a[j][i] = np.array(A[i, j])
    v = [np.array(row) for row in v]
    rot = np.empty(M, dtype=bool)
    den, zeta, t, c, s, tmp, spare = (np.empty(M) for _ in range(7))
    v_tmp, v_spare = np.empty(n), np.empty(n)
    for sweeps in range(JACOBI_MAX_SWEEPS + 1):
        rotated = False
        for i in range(q - 1):
            for j in range(i + 1, q):
                aij, aii, ajj = a[i][j], a[i][i], a[j][j]
                np.sqrt(np.abs(np.multiply(aii, ajj, out=tmp), out=tmp), out=tmp)
                np.greater(np.abs(aij, out=den), np.multiply(_EPS, tmp, out=tmp), out=rot)
                count = np.count_nonzero(rot)
                if not count:
                    continue
                rotated = True
                # den = 2 a_ij where the matrix rotates and 2 = 2 * 1.0 where not
                np.multiply(2.0, aij, out=den)
                if count == M:
                    sign = 1.0
                else:
                    sign = rot
                    np.copyto(den, 2.0, where=~rot)
                # zeta = (a_jj - a_ii) / den, t = copysign(sign, zeta) /
                # (|zeta| + sqrt(1 + zeta^2)), c = 1 / sqrt(1 + t^2), s = t c
                np.divide(np.subtract(ajj, aii, out=zeta), den, out=zeta)
                np.sqrt(np.add(1.0, np.multiply(zeta, zeta, out=t), out=t), out=t)
                np.add(np.abs(zeta, out=tmp), t, out=t)
                np.divide(np.copysign(sign, zeta, out=tmp), t, out=t)
                np.sqrt(np.add(1.0, np.multiply(t, t, out=c), out=c), out=c)
                np.divide(1.0, c, out=c)
                np.multiply(t, c, out=s)
                np.multiply(t, aij, out=tmp)  # the shift
                np.subtract(aii, tmp, out=aii)
                np.add(ajj, tmp, out=ajj)
                if count == M:
                    aij.fill(0.0)
                else:
                    np.copyto(aij, 0.0, where=rot)
                for k in range(q):
                    if k != i and k != j:
                        _rotate(a[k][i], a[k][j], c, s, spare, tmp)
                        a[k][i], a[i][k], spare = spare, spare, a[k][i]
                _rotate(v[i], v[j], c[:n], s[:n], v_spare, v_tmp)
                v[i], v_spare = v_spare, v[i]
        if not rotated:
            # + 0.0: a zero on the diagonal is +0.0 whatever the stack did
            lam = np.array([a[i][i] for i in range(q)]) + 0.0
            lam[:, bad] = np.nan
            return lam, np.array(v), sweeps
    raise JacobiConvergenceError(
        f"Jacobi did not converge within {JACOBI_MAX_SWEEPS} sweeps on a stack of "
        f"{M} matrices")


def _descending(lam: np.ndarray) -> np.ndarray:
    """The columns of a (q, M) ``lam`` in descending order, as an (M, q) array.

    A compare-exchange network (insertion order, q (q - 1) / 2 exchanges of
    np.maximum and np.minimum over whole rows) gives ``np.sort(lam.T,
    axis=1)[:, ::-1]`` bit for bit: equal floats are the same bits, except
    -0.0 and +0.0, which the kernel's diagonal never holds.  The result is
    the transpose of the sorted (q, M) rows, so each eigenvalue's column is
    contiguous.  With a NaN anywhere it is np.sort, which orders NaNs as the
    network would not.
    """
    if np.isnan(lam).any():
        return np.sort(lam.T, axis=1)[:, ::-1]
    rows = list(lam)
    for i in range(1, len(rows)):
        for j in range(i, 0, -1):
            hi, lo = rows[j - 1], rows[j]
            rows[j - 1], rows[j] = np.maximum(hi, lo), np.minimum(hi, lo)
    return np.array(rows).T


def _spectra(inner: np.ndarray, scalings: Sequence[np.ndarray], T: float,
             g: np.ndarray | None = None):
    """Eigen stage: each scaling's eigenvalues, and W from the first, in one Jacobi.

    ``inner`` is the (N, q, q) stack of A = G V_hat G'.  The Jacobi stack
    holds diag(d) A diag(d) for every vector d in ``scalings``, so one run
    covers all of them.  It is filled from A's upper triangle, entry by
    entry as (d_i a_ij) d_j into one preallocated (q, q, N len(scalings))
    array, and the upper triangle is then mirrored into the lower one.
    With ``g`` (N, q), D g for the first d is rotated alongside, and W = T
    sum_i (J' D g)_i^2 / lambda_i = T g' A^{-1} g.  A draw is singular when
    the smallest eigenvalue of its first scaling is not > 0 or not finite;
    its W and eigenvalues are NaN, and nothing is regularised.  Returns (W,
    singular, eigs), eigs holding per scaling an (N, q) view in descending
    order; W and singular are None without g.
    """
    N, q = inner.shape[:2]
    stack = np.empty((q, q, N * len(scalings)))
    for k, d in enumerate(scalings):
        block = stack[..., k * N:(k + 1) * N]
        for i in range(q):
            for j in range(i, q):
                np.multiply(d[i] * inner[:, i, j], d[j], out=block[i, j])
    for i in range(q):
        for j in range(i + 1, q):
            stack[j, i] = stack[i, j]
    v = np.zeros((q, 0)) if g is None else scalings[0][:, None] * g.T
    lam, v, _ = _jacobi_stack(stack, v)
    ordered = _descending(lam)
    eigs = tuple(ordered[k * N:(k + 1) * N] for k in range(len(scalings)))
    if g is None:
        return None, None, eigs
    first = lam[:, :N]
    singular = ~(first.min(axis=0) > 0.0)
    W = T * (v * v / np.where(singular, 1.0, first)).sum(axis=0)
    W[singular] = np.nan
    for e in eigs:
        e[singular] = np.nan
    return W, singular, eigs


def _singular_text(singular: np.ndarray) -> str:
    return f"inner Wald matrix singular on {int(singular.sum())} of {singular.size} draws"


def wald_statistic(theta_hat: Sequence[float], V_hat: np.ndarray,
                   sys: RestrictionSystem | CompiledSystem,
                   T: int) -> float | np.ndarray:
    """W = T g' [G V-hat G']^{-1} g at theta_hat, one point or an (N, p) stack.

    The experiments' kernel, ``_inner`` then ``_spectra``, unscaled: the
    batched Jacobi of the inner matrix, with g rotated alongside, so no
    inverse or solve is formed.  ``V_hat`` is one (p, p) matrix or an (N, p,
    p) stack.  A float for one point, an (N,) array for a stack.  A singular
    inner matrix (smallest eigenvalue not > 0) raises SingularMetricError --
    never silent regularisation.
    """
    comp = sys if isinstance(sys, CompiledSystem) else CompiledSystem(sys)
    theta = np.asarray(theta_hat, dtype=float)
    inner, g = _inner(comp, theta.reshape(-1, comp.p), np.asarray(V_hat, dtype=float))
    W, singular, _ = _spectra(inner, (np.ones(comp.q),), T, g)
    if singular.any():
        raise SingularMetricError(_singular_text(singular))
    return W if theta.ndim == 2 else float(W[0])


def wald_closed_form_product_pairs(theta_hat: Sequence[float] | np.ndarray,
                                   T: int | np.ndarray) -> float | np.ndarray:
    """Closed-form W for the product-pairs demo (xy, xw, yz) with V = I.

    Coordinates are (x, y, z, w); serves as an independent oracle for the
    general Wald path.  ``theta_hat`` is one point or an (N, 4) stack and
    ``T`` a scalar or an (N,) array: a float for one point, an (N,) array
    for a stack, each entry T (w^2 + y^2) (x^2 + z^2) / (w^2 + x^2 + y^2 +
    z^2) in that order of operations, and 0.0 where the denominator is 0.
    The formula is the continuous extension of the statistic off the null
    variety; on the variety itself (where the inner matrix is singular and
    the statistic is exactly zero) the extension is generally nonzero.
    """
    x, y, z, w = np.moveaxis(np.asarray(theta_hat, dtype=float), -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as in Python floats
        denom = w * w + x * x + y * y + z * z
        num = np.asarray(T * (w * w + y * y) * (x * x + z * z))
        W = np.divide(num, denom, out=np.zeros(num.shape), where=denom != 0.0)
    return W if W.ndim else float(W)


def symmetric_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, descending.

    Sweeps rotate every off-diagonal pair until the off-diagonal Frobenius
    norm, taken from the off-diagonal entries themselves, falls below
    1e-12 ||M||; 100 sweeps that do not get there raise
    JacobiConvergenceError.  A rotation zeroes its pair and rewrites rows
    and columns i and j only, in Python floats.
    """
    A = np.asarray(M, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = np.linalg.norm(A)
    if scale > 0 and np.linalg.norm(A - A.T) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric to the required tolerance")
    a = ((A + A.T) / 2.0).tolist()
    if n == 1:
        return np.array(a[0])
    target = 1e-12 * max(scale, np.finfo(float).tiny)
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    for _ in range(100):
        if math.sqrt(2.0) * math.hypot(*(a[i][j] for i, j in pairs)) <= target:
            return np.array(sorted((a[i][i] for i in range(n)), reverse=True))
        for i, j in pairs:
            aij = a[i][j]
            if aij == 0.0:
                continue
            diff = a[j][j] - a[i][i]
            if abs(aij) < 1e-36 * abs(diff):
                t = aij / diff
            else:
                phi = diff / (2.0 * aij)
                t = 1.0 / (abs(phi) + math.sqrt(phi * phi + 1.0))
                if phi < 0.0:
                    t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            a[i][i] -= t * aij
            a[j][j] += t * aij
            a[i][j] = a[j][i] = 0.0
            for k in range(n):
                if k != i and k != j:
                    aki, akj = a[k][i], a[k][j]
                    a[k][i] = a[i][k] = c * aki - s * akj
                    a[k][j] = a[j][k] = s * aki + c * akj
    raise JacobiConvergenceError("no convergence after 100 sweeps")


@dataclass(frozen=True)
class SimResult:
    """Per-T Wald samples, fitted divergence slope, and scaling diagnostics."""

    t_grid: tuple[int, ...]
    wald_samples: tuple[np.ndarray, ...]
    median_log_slope: float
    slope_stderr: float
    eig_trajectories: tuple[np.ndarray, ...]  # per-T medians, descending
    mu_samples: tuple[float, ...]             # per-T median of the bound ratio
    singular_fraction: float
    bound_violations: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimResult):
            return NotImplemented
        # NaN marks a singular draw, so two identical runs hold NaN in the same places
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name),
                                  equal_nan=True)
                   for f in fields(self))

    @functools.cached_property
    def median_wald(self) -> np.ndarray:
        """Per-T median of the finite W, computed on first use and kept."""
        return np.array([float(np.median(w[np.isfinite(w)])) for w in self.wald_samples])


def _chi_square_cdf(q: int, x: float) -> float:
    """P(chi2_q <= x) for an integer q, by the finite sums of the integer-dof CDF:
    1 - e^{-x/2} sum_{k<q/2} (x/2)^k / k! for even q, and erf(sqrt(x/2)) -
    e^{-x/2} sum_{k<(q-1)/2} (x/2)^{k+1/2} / Gamma(k+3/2) for odd q."""
    h = x / 2.0
    half = q % 2 / 2.0
    term = h ** half / math.gamma(1.0 + half)
    total = 0.0
    for k in range(q // 2):
        total += term
        term *= h / (k + 1.0 + half)
    return (math.erf(math.sqrt(h)) if q % 2 else 1.0) - math.exp(-h) * total


def chi_square_median(q: int) -> float:
    """Median of the chi-square distribution with q degrees of freedom.

    Bisection on the chi-square CDF, P(chi2_q <= x) = 1/2.
    """
    if q < 1:
        raise ValueError("degrees of freedom must be >= 1")
    lo, hi = 0.0, 10.0 * q + 10.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _chi_square_cdf(q, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def fit_loglog_slope(t_grid: Sequence[int], values: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log(values) against log(T), with its stderr."""
    x = np.log(np.asarray(t_grid, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    n = x.size
    xc = x - x.mean()
    slope = float((xc @ (y - y.mean())) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(n - 2, 1)
    stderr = float(math.sqrt((resid @ resid) / dof / (xc @ xc)))
    return slope, stderr


def _validate_grid(t_grid: Sequence[int], reps: int) -> tuple[int, ...]:
    grid = tuple(int(t) for t in t_grid)
    if len(grid) < 4:
        raise ValueError("t_grid must contain at least 4 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if grid[0] < 1:
        raise ValueError("t_grid values must be >= 1")
    if reps < 200:
        raise ValueError("reps must be >= 200")
    return grid


def _draw_stack(model: EstimatorModel, T: int, reps: int, seed: int,
                tail: tuple[int, ...] = (0,)):
    """Draw stage: theta_hat (reps, p), V_hat and tail normals, one substream each.

    Rep ``rep`` draws from the stream of ``np.random.default_rng([seed, T,
    rep])`` exactly what ``draw_estimate`` draws from it, in the same order:
    z, then in perturbed mode the first W, then normals of shape ``tail``
    (none by default).  Every rep's PCG64 runs on arrays, one word per
    normal, through the ziggurat's fast path; a rep with any word off that
    path refills its row from its own generator.  One rep on the fast path
    is drawn by NumPy as well, and if the two differ every rep refills.
    theta_hat and the perturbed V_hat are formed for the whole stack; only
    the reps whose V_hat fails Cholesky replay their stream through
    ``draw_estimate``'s retries, then draw their tail.  Returns (thetas,
    V_hat, tails), V_hat being ``model.V`` itself in exact mode.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    p = model.p
    perturbed = model.vhat_mode == "perturbed"
    seeds = _substream_seeds(seed, T, reps)
    n_w = p * p if perturbed else 0
    n = p + n_w + math.prod(tail)
    normals, accepted = _ziggurat_fast_path(_pcg64_words(_pcg64_seed(seeds), n))
    fast = accepted.all(axis=1)
    for rep in np.flatnonzero(fast)[:1]:  # the certificate: the first fast-path rep
        if _stream(seeds[rep]).standard_normal(n).tobytes() != normals[rep].tobytes():
            fast[:] = False
    for rep in np.flatnonzero(~fast):
        _stream(seeds[rep]).standard_normal(out=normals[rep])
    z, W, tails = np.split(normals, [p, p + n_w], axis=1)
    thetas = model.theta_bar + (model._chol @ z[..., None])[..., 0] / math.sqrt(T)
    tails = tails.reshape((reps,) + tuple(tail))
    if not perturbed:
        return thetas, model.V, tails
    covs = _perturbed_vhat(model, T, W.reshape(reps, p, p))
    for rep in np.flatnonzero(_cholesky_fails(covs)):
        rng = _stream(seeds[rep])
        covs[rep] = draw_estimate(model, T, rng)[1]
        tails[rep] = rng.standard_normal(tail)
    return thetas, covs, tails


def _inner(comp: CompiledSystem, thetas: np.ndarray,
           covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The front half of the Monte Carlo kernel: one T over all reps at once.

    For the (reps, p) draws and their V_hat, one (p, p) matrix or a stack,
    evaluate g and G from one power table and form the inner matrices A = G
    V_hat G' once.  The divergence experiment compiles the echelonized
    system S g, so there g and G are already S g and S G, with S applied
    exactly.  Returns A (reps, q, q) and g (reps, q).  Every caller hands A
    to ``_spectra``: one batched Jacobi takes, for each vector d in its
    scalings, the descending eigenvalues of diag(d) A diag(d); given g it
    rotates D g of the first scaling alongside, which gives W (S cancels out
    of it), and counts a draw whose smallest eigenvalue there is not > 0 as
    singular, with NaN for its W and eigenvalues.
    """
    tables = comp.power_tables(thetas)
    G = comp.jacobian_at(thetas, tables)
    return G @ covs @ np.swapaxes(G, -1, -2), comp.g_at(thetas, tables)


def _median(x: np.ndarray, axis: int | None = None):
    """np.nanmedian of x: np.median itself when x holds no NaN, which gives
    the same values without np.nanmedian's NaN handling."""
    return np.nanmedian(x, axis=axis) if np.isnan(x).any() else np.median(x, axis=axis)


def _block_scaling(report: RateReport) -> tuple[np.ndarray, np.ndarray]:
    """The report's echelon row degrees s and rates beta, as floats."""
    return (np.array(report.echelon.row_degrees, dtype=float),
            np.array([float(b) for b in report.beta]))


def _min_scaled_square(T: int, s_deg: np.ndarray, g: np.ndarray) -> np.ndarray:
    """min_i [T^{(s_i+1)/2} g_i]^2 for each row of an (N, q) g: the scaled g
    is formed as q contiguous rows of N, and the minimum runs along them."""
    rows = np.multiply(T ** ((s_deg[:, None] + 1.0) / 2.0), g.T, order="C")
    return np.min(rows**2, axis=0)


def divergence_experiment(sys: RestrictionSystem, model: EstimatorModel,
                          t_grid: Sequence[int], reps: int, seed: int,
                          report: RateReport) -> SimResult:
    """Medians of W over replications per T, with the fitted log-log slope.

    Also tracks, per draw, the block-scaled eigenvalues and the lower-bound
    ratio mu_T = min_i [T^{(s_i+1)/2} (Sg)_i]^2 / max_i lambda_i of the
    doubly-scaled inner matrix, verifying W >= T^beta_bar * mu_T pathwise.
    Draws with singular inner matrices are skipped and reported as a
    fraction; above 5% the experiment fails.
    """
    grid = _validate_grid(t_grid, reps)
    comp = CompiledSystem(transform(sys, report.echelon.S))
    s_deg, beta = _block_scaling(report)
    beta_bar = float(report.beta_bar)
    degenerate = report.rank_r < sys.q

    wald_all: list[np.ndarray] = []
    eig_medians: list[np.ndarray] = []
    mu_medians: list[float] = []
    singular = 0
    violations = 0
    for T in grid:
        delta = T ** (s_deg / 2.0)
        # sigma_bar = D S G V G' S' D; sigma_hat rescales it by T^{beta/2}
        scalings = (delta, delta * T ** (beta / 2.0)) if degenerate else (delta,)
        thetas, covs, _ = _draw_stack(model, T, reps, seed)
        inner, g = _inner(comp, thetas, covs)
        W, skipped, eigs = _spectra(inner, scalings, T, g)
        singular += int(skipped.sum())
        wald_all.append(W)
        eig_medians.append(_median(eigs[0], axis=0))
        if degenerate:
            mu = _min_scaled_square(T, s_deg, g) / eigs[1][:, 0]
            violations += int(np.count_nonzero(W < T**beta_bar * mu - 1e-9))
            mu_medians.append(float(_median(mu)))
        else:
            mu_medians.append(0.0)

    total = len(grid) * reps
    fraction = singular / total
    if fraction > 0.05:
        raise ExcessiveSingularDrawsError(
            f"singular inner matrix on {fraction:.1%} of draws (threshold 5%)"
        )
    medians = [float(_median(w)) for w in wald_all]
    slope, stderr = fit_loglog_slope(grid, medians)
    return SimResult(
        t_grid=grid,
        wald_samples=tuple(wald_all),
        median_log_slope=slope,
        slope_stderr=stderr,
        eig_trajectories=tuple(eig_medians),
        mu_samples=tuple(mu_medians),
        singular_fraction=fraction,
        bound_violations=violations,
    )


#: Random SPD covariances behind the vanishing experiment's generic degrees.
VANISHING_GENERIC_SAMPLES = 5

#: Scale of the PSD perturbation of U in the "perturbed" vanishing mode.
VANISHING_PERTURB_SCALE = 0.5


@dataclass(frozen=True)
class VanishingResult:
    """Raw and rate-rescaled eigenvalue medians of the unscaled inner matrix."""

    t_grid: tuple[int, ...]
    raw_medians: np.ndarray     # shape (len(t_grid), q), descending per row
    scaled_medians: np.ndarray  # raw * T^{beta_l}
    beta: tuple
    m_generic: tuple
    m_at_u: tuple
    k_star: int | None          # first 1-based k with m_k(U) above generic


def vanishing_rate_experiment(sys: RestrictionSystem, U: Covariance,
                              u_t_mode: str, t_grid: Sequence[int], reps: int,
                              seed: int, check_degenerate: bool = True) -> VanishingResult:
    """Eigenvalue trajectories of G(theta_hat) U_T G(theta_hat)' (no block scaling).

    The rescaling exponents come from the generic minimal degrees:
    beta_l = (m_k - m_{k-1})/2 for l >= k at the first k where U's degree
    exceeds the generic one; the scaled medians then vanish for l >= k and
    stabilise otherwise.  ``u_t_mode`` is "exact" (U_T = U) or "perturbed"
    (U_T = U + VANISHING_PERTURB_SCALE * T^{-1/2} W).  Estimates are drawn
    with identity covariance: only the plug-in covariance U_T enters the
    analysed matrix.
    """
    if u_t_mode not in ("exact", "perturbed"):
        raise ValueError(f"unknown u_t_mode {u_t_mode!r}")
    grid = tuple(int(t) for t in t_grid)
    q, p = sys.q, sys.p
    G = jacobian(recenter(sys))
    m_at_u = _ray_degrees(G, U)
    m_generic = min_degree_generic(G, samples=VANISHING_GENERIC_SAMPLES, rng_seed=seed + 17)
    k_star = next((k for k in range(1, q + 1) if m_at_u[k - 1] > m_generic[k - 1]), None)
    if k_star is None and check_degenerate:
        raise GenericCovarianceError(
            "the covariance has generic minimal degrees; no eigenvalue vanishes"
        )

    betas = []
    prev = 0
    for k in range(1, q + 1):
        if k_star is not None and k >= k_star:
            lo, hi = m_generic[k_star - 2] if k_star >= 2 else 0, m_generic[k_star - 1]
            betas.append(Fraction(hi - lo, 2))
        else:
            betas.append(Fraction(m_generic[k - 1] - prev, 2))
        prev = m_generic[k - 1]

    comp = CompiledSystem(sys)
    theta_bar = np.array([float(t) for t in sys.theta_bar])
    model = EstimatorModel(theta_bar, np.eye(p))
    U_float = U.to_float()
    tail = (p, p) if u_t_mode == "perturbed" else (0,)
    raw = np.empty((len(grid), q))
    for ti, T in enumerate(grid):
        thetas, _, A = _draw_stack(model, T, reps, seed, tail)
        # PSD perturbation: U may sit on the cone boundary, where a signed
        # perturbation would leave the admissible set
        U_T = U_float if u_t_mode == "exact" else (
            U_float + VANISHING_PERTURB_SCALE / math.sqrt(T) * (A @ np.swapaxes(A, -1, -2)) / p)
        _, _, eigs = _spectra(_inner(comp, thetas, U_T)[0], (np.ones(q),), T)
        raw[ti] = _median(eigs[0], axis=0)
    beta_f = np.array([float(b) for b in betas])
    scaled = raw * np.array(grid, dtype=float)[:, None] ** beta_f[None, :]
    return VanishingResult(
        t_grid=grid,
        raw_medians=raw,
        scaled_medians=scaled,
        beta=tuple(betas),
        m_generic=m_generic,
        m_at_u=m_at_u,
        k_star=k_star,
    )
