"""The rotation route of the blinded channel, the reference for its closed forms.

Each qubit is one amplitude row: blinded, encoded, turned back by its
blinding angle and put through the honest Born step in its basis, one row
at a time. The P4 and P5 samplers read the plain channel's cached table at
pi/4 instead, since an unblinded coding state is the plain pair, and the
P4 copy probe reads its closed form; the tests hold them to this route
draw for draw. The route's Born step, `born_rows` and `povm_rows`, is plain
numpy over the amplitude rows and shares no code with the single-state Born
rule that builds the cached tables. The reference routes build their
receiver records from a decoded row with `receiver_record`, which refuses a
cell other than -1 or a bit.
"""

import numpy as np

from qotlab.attacks import entangle_probe_rows
from qotlab.bitcommit import ENCODE_ANGLE, blinding_angles
from qotlab.qsim import passed_sums, running_sums
from qotlab.rot import HONEST_DECODE, ReceiverRecord, honest_draws, measurement_bases

# position of the perp outcome in each of measurement_bases
PERP_INDEX = 1


def rotate_rows(amps: np.ndarray, angles) -> np.ndarray:
    """Batched rotation_plane on qubit 0: row i of an (N, 2**n) amplitude
    array gets rotation_plane(angles[i]); a scalar angle applies to all rows."""
    amps = np.asarray(amps)
    if amps.ndim != 2:
        raise ValueError("amplitudes must be an (N, 2**n) array")
    rows, dim = amps.shape
    angles = np.broadcast_to(np.asarray(angles, dtype=np.float64), (rows,))
    c = np.cos(angles)[:, np.newaxis]
    s = np.sin(angles)[:, np.newaxis]
    t = amps.reshape(rows, 2, dim // 2)
    a0, a1 = t[:, 0], t[:, 1]
    return np.stack((c * a0 - s * a1, s * a0 + c * a1), axis=1).reshape(rows, dim)


def born_rows(amps, bases, x) -> np.ndarray:
    """The Born step of the reference routes: row i of an (N, 2**n) amplitude
    array measured in bases[x[i]] on its leading qubits, the rest traced
    out. Returns the (N, K) outcome probabilities."""
    amps = np.asarray(amps)
    x = np.broadcast_to(np.asarray(x), (len(amps),))
    dim = 2 ** bases[0].num_qubits
    rows = amps.reshape(len(amps), dim, amps.shape[1] // dim)
    probs = np.empty((len(amps), len(bases[0].states)))
    for option, basis in enumerate(bases):
        picked = x == option
        conj = np.stack([state.amps for state in basis.states]).conj()
        resid = np.einsum("kd,ndr->nkr", conj, rows[picked])
        probs[picked] = (np.abs(resid) ** 2).sum(axis=2)
    return probs


def povm_rows(amps, povm) -> np.ndarray:
    """The POVM's outcome probabilities for each row of an (N, dim) array."""
    return np.einsum("nd,jde,ne->nj", np.conj(amps), np.stack(povm.effects), amps).real


def inverse_cdf(probabilities: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF sampling of an (N, K) probability array, one
    uniform per row: `passed_sums` of the rows' `running_sums`."""
    return passed_sums(running_sums(probabilities), np.asarray(u))


def decoded_pairs(decoded) -> tuple[tuple[int, int], ...]:
    """The conclusive (position, value) pairs of a decoded row, 1-based: every
    cell that is not -1 becomes a pair."""
    return tuple((pos, val) for pos, val in enumerate(np.asarray(decoded).tolist(), 1) if val != -1)


def receiver_record(strategy: str, decoded) -> ReceiverRecord:
    """The record of a receiver that decoded `decoded` (-1 where it learned
    nothing): the row as read-only int8 and its `decoded_pairs`. A cell
    other than -1, 0 or 1 is refused."""
    cells = np.asarray(decoded).tolist()
    if any(cell not in (-1, 0, 1) for cell in cells):
        raise ValueError("decoded cells must be -1, 0 or 1")
    row = np.array(cells, dtype=np.int8)
    row.flags.writeable = False
    return ReceiverRecord(strategy, decoded_pairs(row), row)


def blinded_amps(alphas, bits=0) -> np.ndarray:
    """|0> rotated by each blinding angle, then by the encoding angle iff its
    bit is 1; amplitudes on a trailing axis of length 2."""
    angle = np.asarray(alphas, dtype=np.float64) + ENCODE_ANGLE * np.asarray(bits)
    return np.stack((np.cos(angle), np.sin(angle)), axis=-1)


def unblind_and_measure(amps, alphas, x, u) -> np.ndarray:
    """Decoded bits of (N, 2) blinded rows: row i turned back by alphas[i]
    and measured in basis x[i] with uniform u[i]. The perp outcome decodes
    x xor 1, the other one -1."""
    unblinded = rotate_rows(amps, -np.asarray(alphas))
    outcomes = inverse_cdf(born_rows(unblinded, measurement_bases(ENCODE_ANGLE), x), u)
    return np.where(outcomes == PERP_INDEX, x ^ 1, -1).astype(np.int8)


def probed_probabilities(alphas, r, x) -> np.ndarray:
    """The honest Born step on blinded qubits copied onto a probe: row i
    blinded by alphas[i], probed, encoded with bit r[i], turned back and
    measured in basis x[i] with the probe traced out."""
    alphas = np.asarray(alphas, dtype=np.float64)
    probed = rotate_rows(entangle_probe_rows(blinded_amps(alphas)), ENCODE_ANGLE * np.asarray(r))
    x = np.broadcast_to(np.asarray(x, dtype=np.int8), alphas.shape)
    unblinded = rotate_rows(probed, -alphas)
    return born_rows(unblinded, measurement_bases(ENCODE_ANGLE), x)


def reference_probe_attack_p4(n: int, trials: int, rng) -> np.ndarray:
    """The copy-probe campaign on blinded qubits through the rotation route,
    with the draws of `attacks.probe_attack_p4` in its order: a detection is
    a conclusive outcome that decodes a bit other than r."""
    size = trials * n
    alphas = blinding_angles(rng, size)
    r = rng.bits(size)
    x, u = honest_draws(rng, size)
    decoded = HONEST_DECODE[x, inverse_cdf(probed_probabilities(alphas, r, x), u)]
    return ((decoded >= 0) & (decoded != r)).reshape(trials, n)
