"""Training-data selection for multi-domain sentiment classification.

Score candidate examples, subsets, or whole domains against a target domain
under interchangeable representations and similarity metrics, then evaluate
the resulting selections with a reproducible classifier-and-statistics
harness. The package re-exports nothing; each name is imported from the one
module that defines it:

- ``corpus``: documents, corpus files, preprocessing, the vocabulary and the
  token-id ``EncodedCorpus``, and tf-idf.
- ``embeddings``: pre-trained word-vector files (``load_embeddings``).
- ``representations``: the per-document matrix of each view (term
  distributions, SIF-weighted embeddings, autoencoder codes) and
  ``pool_groups``, which pools subsets and domains from its rows.
- ``similarity``: Jensen-Shannon divergence, cosine and proxy-A scores.
- ``selection``: the domain, instance and subset strategies and the random
  and balanced baselines.
- ``autoencoder``: the denoising autoencoder behind the code view.
- ``evaluation``: the classifier, the experiment context that one corpus
  and target share, the multi-run protocol and the t-test.
- ``synthetic``: the controlled multi-domain corpora and their catalog.
- ``errors``: the exception taxonomy, which the CLI maps to exit codes.
- ``cli``: the ``dataselect`` command line.
"""
