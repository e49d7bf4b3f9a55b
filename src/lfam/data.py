"""Synthetic segmentation data, tiling, fold planning, and PGM persistence.

Images are single-channel maps in [0, 1] where each class paints a distinct
base intensity plus bounded uniform noise, so per-pixel separability is
controlled by the class count.  The last class is deliberately rare: small
discs are stamped until its pixel share reaches the requested fraction.
Generation is counter-seeded per image, so any image is reproducible without
generating its predecessors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, DatasetError, GenerationError, PgmError, ShapeError
from .rng import make_rng
from .tensor import Tensor

_NOISE_HALF_WIDTH = 0.08
_BASE_LO, _BASE_HI = 0.15, 0.9
_PLACEMENT_RETRIES = 64
_PGM_MAX_DIGITS = 9  # a longer PGM header number is malformed; int() refuses > 4300 digits
PGM_MAX_CLASSES = 256  # an 8-bit PGM mask holds labels 0..255


@dataclass(frozen=True)
class LabeledImage:
    """One sample: image tensor (1, c, h, w) in [0, 1] and an int mask (h, w)."""

    image: Tensor
    mask: np.ndarray

    def __post_init__(self):
        n, c, h, w = self.image.shape
        if n != 1:
            raise ShapeError(f"a sample holds one image, got batch {n}")
        if self.mask.shape != (h, w):
            raise ShapeError(f"mask {self.mask.shape} does not match image ({h}, {w})")
        if not np.issubdtype(self.mask.dtype, np.integer):
            raise ContractError(f"mask must hold class indices, got {self.mask.dtype}")
        if self.mask.min() < 0:
            raise ContractError("mask labels must be non-negative")


def class_bases(num_classes: int) -> np.ndarray:
    """Evenly spaced base intensities, one per class."""
    return np.linspace(_BASE_LO, _BASE_HI, num_classes)


def _disc(h: int, w: int, cy: int, cx: int, r: int) -> np.ndarray:
    yy, xx = np.ogrid[:h, :w]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def _sample_region(rng: np.random.Generator, size: int, kind: str) -> np.ndarray:
    """One mask-shaped boolean region; raises after bounded placement retries."""
    for _ in range(_PLACEMENT_RETRIES):
        if kind == "rect":
            rh = int(rng.integers(max(2, size // 8), max(3, size // 3) + 1))
            rw = int(rng.integers(max(2, size // 8), max(3, size // 3) + 1))
            if rh >= size or rw >= size:
                continue
            top = int(rng.integers(0, size - rh + 1))
            left = int(rng.integers(0, size - rw + 1))
            region = np.zeros((size, size), dtype=bool)
            region[top:top + rh, left:left + rw] = True
            return region
        r = int(rng.integers(max(1, size // 10), max(2, size // 4) + 1))
        if 2 * r + 1 > size:
            continue
        cy = int(rng.integers(r, size - r))
        cx = int(rng.integers(r, size - r))
        region = _disc(size, size, cy, cx, r)
        if kind == "ring":
            inner = max(0, r - max(1, r // 3))
            region &= ~_disc(size, size, cy, cx, inner)
        return region
    raise GenerationError(f"could not place a {kind} on a {size}x{size} canvas "
                          f"after {_PLACEMENT_RETRIES} tries")


def _paint_rare_class(rng: np.random.Generator, mask: np.ndarray,
                      label: int, frac: float) -> None:
    size = mask.shape[0]
    target = max(1, round(frac * mask.size))
    blob_r = max(1, size // 24)
    for _ in range(_PLACEMENT_RETRIES * 16):
        if np.count_nonzero(mask == label) >= target:
            return
        cy = int(rng.integers(blob_r, size - blob_r))
        cx = int(rng.integers(blob_r, size - blob_r))
        mask[_disc(size, size, cy, cx, blob_r)] = label
    raise GenerationError(f"rare class never reached a {frac:.4f} pixel share")


def _gen_one(seed: int, index: int, size: int, num_classes: int,
             rare_class_frac: float) -> LabeledImage:
    """Image `index` of the dataset; depends only on (seed, index)."""
    rng = make_rng(seed, stream=index)
    kinds = ("rect", "disc", "ring")
    mask = np.zeros((size, size), dtype=np.int64)
    for label in range(1, num_classes - 1):
        for j in range(int(rng.integers(1, 4))):
            mask[_sample_region(rng, size, kinds[(label + j) % 3])] = label
    _paint_rare_class(rng, mask, num_classes - 1, rare_class_frac)
    noise = rng.uniform(-_NOISE_HALF_WIDTH, _NOISE_HALF_WIDTH, size=(size, size))
    image = (class_bases(num_classes)[mask] + noise).astype(np.float32)
    return LabeledImage(image=Tensor(image[None, None]), mask=mask)


def gen_synthetic(n_images: int, size: int, num_classes: int,
                  rare_class_frac: float, seed: int) -> list[LabeledImage]:
    """Background, 1..k-2 shape classes, then a rare last class, with seeded noise.

    Each image draws from its own counter stream, so the output is identical
    for any n_images prefix.
    """
    if n_images < 1:
        raise ConfigError(f"n_images must be >= 1, got {n_images}")
    if size < 8:
        raise ConfigError(f"size must be >= 8, got {size}")
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    if not 0.0 < rare_class_frac < 0.1:
        raise ConfigError(f"rare_class_frac must lie in (0, 0.1), got {rare_class_frac}")
    return [_gen_one(seed, i, size, num_classes, rare_class_frac) for i in range(n_images)]


# ---------------------------------------------------------------------------
# tiling


def crop_tiles(img: LabeledImage, tile: int) -> list[LabeledImage]:
    """Non-overlapping tile x tile crops in row-major order; remainders are dropped."""
    _, c, h, w = img.image.shape
    if tile < 1:
        raise ConfigError(f"tile must be >= 1, got {tile}")
    if tile > h or tile > w:
        raise ShapeError(f"tile {tile} exceeds image ({h}, {w})")
    out = []
    for r in range(h // tile):
        for s in range(w // tile):
            ys, xs = r * tile, s * tile
            out.append(LabeledImage(
                image=Tensor(img.image.data[:, :, ys:ys + tile, xs:xs + tile].copy()),
                mask=img.mask[ys:ys + tile, xs:xs + tile].copy()))
    return out


# ---------------------------------------------------------------------------
# fold planning


@dataclass(frozen=True)
class Fold:
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]


@dataclass(frozen=True)
class FoldPlan:
    k: int
    n: int
    folds: tuple[Fold, ...]


def kfold_split(n: int, k: int, val_frac_of_train: float, seed: int) -> FoldPlan:
    """Shuffle once, cut k test folds, and carve each fold's validation set
    from the front of the remaining shuffled indices."""
    if k < 2 or n < k:
        raise ConfigError(f"need n >= k >= 2, got n={n}, k={k}")
    if not 0.0 <= val_frac_of_train < 1.0:
        raise ConfigError(f"val_frac_of_train must lie in [0, 1), got {val_frac_of_train}")
    perm = make_rng(seed, stream=0).permutation(n)
    chunks = np.array_split(perm, k)
    folds = []
    for i in range(k):
        test = chunks[i]
        rest = np.concatenate([chunks[j] for j in range(k) if j != i])
        n_val = round(val_frac_of_train * len(rest))
        folds.append(Fold(train=tuple(int(x) for x in rest[n_val:]),
                          val=tuple(int(x) for x in rest[:n_val]),
                          test=tuple(int(x) for x in test)))
    return FoldPlan(k=k, n=n, folds=tuple(folds))


def compute_class_weights(masks, num_classes: int) -> np.ndarray:
    """Inverse-frequency weights, counts floored at one pixel, normalized to mean 1."""
    if num_classes < 1:
        raise ConfigError(f"num_classes must be >= 1, got {num_classes}")
    counts = np.zeros(num_classes, dtype=np.int64)
    total = 0
    for mask in masks:
        mask = np.asarray(mask)
        if mask.min() < 0 or mask.max() >= num_classes:
            raise ContractError(f"mask labels outside [0, {num_classes})")
        counts += np.bincount(mask.ravel(), minlength=num_classes)
        total += mask.size
    if total == 0:
        raise ConfigError("no pixels supplied")
    weights = total / (num_classes * np.maximum(counts, 1))
    return weights / weights.mean()


# ---------------------------------------------------------------------------
# Atomic file writes and PGM persistence (binary P5, 8-bit)


def replace_atomically(path: Path, write: Callable[[Path], None]) -> None:
    """Run write on a temporary file beside path, then rename it over path.

    Readers see the old file or the new one, never a partial write; if
    write fails, path is left as it was and the temporary file is removed.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_pgm(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ShapeError(f"PGM wants a 2-d array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ContractError(f"PGM payload must be uint8, got {arr.dtype}")
    h, w = arr.shape
    data = f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes()
    replace_atomically(Path(path), lambda p: p.write_bytes(data))


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM; every malformed file raises PgmError."""
    data = Path(path).read_bytes()
    if not (data.startswith(b"P5") and data[2:3].isspace()):
        raise PgmError(f"{path}: not a binary PGM file (magic P5 then whitespace)")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                raise PgmError(f"{path}: header ends inside a comment")
            pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not (token.isdigit() and len(token) <= _PGM_MAX_DIGITS):
            raise PgmError(f"{path}: bad header field {token[:_PGM_MAX_DIGITS + 1]!r}")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise PgmError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    if w == 0 or h == 0:
        raise PgmError(f"{path}: empty {w}x{h} image")
    payload = data[pos:pos + h * w]
    if len(payload) != h * w:
        raise PgmError(f"{path}: truncated payload, want {h * w} bytes got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w).copy()


def save_dataset(root, images: list[LabeledImage]) -> None:
    """images/NNNN.pgm holds the intensity map, masks/NNNN.pgm the class ids."""
    if any(sample.mask.max() >= PGM_MAX_CLASSES for sample in images):  # before any directory exists
        raise ContractError(f"PGM masks support at most {PGM_MAX_CLASSES} classes")
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(images):
        gray = np.clip(np.round(sample.image.data[0, 0] * 255.0), 0, 255).astype(np.uint8)
        write_pgm(root / "images" / f"{i:04d}.pgm", gray)
        write_pgm(root / "masks" / f"{i:04d}.pgm", sample.mask.astype(np.uint8))


def load_dataset(root, num_classes: int | None = None, *, side_multiple: int = 1,
                 min_side: int = 1, same_size: bool = False) -> list[LabeledImage]:
    """Read a save_dataset directory back.

    Every image needs a mask of the same name and the reverse; given
    num_classes, every mask label must be below it.  Both sides of every
    image must be multiples of side_multiple and at least min_side (the
    network's 2**depth and the tile size, which a config cannot check
    before the files are read).  With same_size, every image must have the
    first image's size, as untiled images are batched together.  A file
    that breaks a rule raises DatasetError naming it.
    """
    root = Path(root)
    image_paths = sorted((root / "images").glob("*.pgm"))
    mask_paths = sorted((root / "masks").glob("*.pgm"))
    if not image_paths:
        raise FileNotFoundError(f"no PGM images under {root / 'images'}")
    images, masks = {p.name for p in image_paths}, {p.name for p in mask_paths}
    unpaired = sorted(images ^ masks)
    if unpaired:
        name = unpaired[0]
        have, lack = ("images", "masks") if name in images else ("masks", "images")
        raise DatasetError(f"{root / have / name} has no partner in {root / lack}")
    out = []
    for ip, mp in zip(image_paths, mask_paths):
        gray = read_pgm(ip).astype(np.float32) / 255.0
        mask = read_pgm(mp).astype(np.int64)
        if num_classes is not None and mask.max() >= num_classes:
            raise DatasetError(f"{mp}: mask label {mask.max()} outside [0, {num_classes})")
        h, w = gray.shape
        if h % side_multiple or w % side_multiple:
            raise DatasetError(f"{ip}: image {h}x{w} has a side that is not a multiple "
                               f"of {side_multiple}")
        if min(h, w) < min_side:
            raise DatasetError(f"{ip}: image {h}x{w} has a side below {min_side}")
        if same_size and out and (h, w) != out[0].mask.shape:
            fh, fw = out[0].mask.shape
            raise DatasetError(f"{ip}: image {h}x{w} differs in size from {image_paths[0]}, "
                               f"{fh}x{fw}")
        out.append(LabeledImage(image=Tensor(gray[None, None]), mask=mask))
    return out
