"""Seeded synthetic datasets standing in for CIFAR-10/ImageNet, which this
offline reproduction does not ship (see :mod:`repro.data.synthetic`)."""

from repro.data.synthetic import Dataset, cifar_like, make_image_dataset

__all__ = [
    "Dataset",
    "make_image_dataset",
    "cifar_like",
]
