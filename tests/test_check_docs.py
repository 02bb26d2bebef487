"""The docs checker's code-name pass: reST role targets in sources resolve.

``tools/check_docs.py`` resolves every fully qualified ``repro.`` target of
a Python-domain role (``:class:``, ``:meth:``, ...) in ``src/**/*.py``, so a
docstring naming a deleted method fails CI like a doc page naming it.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_role_targets_unwrap_every_spelling():
    source = '''
    """See :class:`~repro.core.sharding.ShardedCertifier`, the title form
    :meth:`certify_batch <repro.core.sharding.ShardedCertifier.certify_batch>`,
    a wrapped :class:`~repro.core.certification.
    Certifier` and :func:`local_name`, which is not fully qualified."""
    #: A doc-comment role wrapped over a comment line,
    #: :attr:`repro.core.config.
    #: ReplicationConfig.certifier_shards`.
    '''
    assert check_docs.role_targets(source) == [
        "repro.core.sharding.ShardedCertifier",
        "repro.core.sharding.ShardedCertifier.certify_batch",
        "repro.core.certification.Certifier",
        "repro.core.config.ReplicationConfig.certifier_shards",
    ]


def test_code_name_pass_flags_a_dangling_target_and_accepts_a_resolving_one(tmp_path):
    resolving = tmp_path / "resolving.py"
    resolving.write_text('"""Wraps :meth:`ShardedCertifier.certify_batch\n'
                         '<repro.core.sharding.ShardedCertifier.certify_batch>`."""\n')
    dangling = tmp_path / "dangling.py"
    dangling.write_text('"""Wraps :meth:`ShardedCertifier.certify\n'
                        '<repro.core.sharding.ShardedCertifier.certify>`."""\n')

    assert check_docs.check_code_names([resolving]) == ([], 1)
    errors, checked = check_docs.check_code_names([resolving, dangling])
    assert checked == 2
    assert errors == [f"{dangling}: role target "
                      "`repro.core.sharding.ShardedCertifier.certify` does not resolve"]
