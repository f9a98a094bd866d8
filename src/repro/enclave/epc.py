"""The Enclave Page Cache (EPC) limit.

SGX gives enclaves ~128 MB of protected memory (~93 MB usable after SGX
metadata); touching more forces encrypted paging to untrusted DRAM, which is
the single effect behind several of the paper's results: the virtual-batch
size cap (Fig. 3 / Fig. 6b, "as the virtual batch size exceeds 4, the
execution time gets worse due to SGX memory overflow"), the multithreading
inversion (Fig. 7), and the baseline's slow non-linear ops (Table 1's 119×
ReLU gap comes from paging large feature maps).

The limit has two readers: :mod:`repro.perf.devices` prices paging in the
analytical cost model, and the serving layer fits ``K`` to it once, when a
deployment is provisioned
(:func:`~repro.serving.adaptive.epc_fitting_batch_size`).
"""

#: Usable after SGX structures (~93 MB, matching common measurements).
EPC_USABLE_BYTES = 93 * 1024 * 1024
