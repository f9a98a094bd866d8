"""Synthetic datasets (the CIFAR/ImageNet substitution per DESIGN.md)."""

from repro.data.synthetic import Dataset, cifar_like, make_image_dataset

__all__ = [
    "Dataset",
    "make_image_dataset",
    "cifar_like",
]
